// Statistics, the closed solve loop and the benchmark-side layer spans.

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "harness.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p : {99, 95, 90, 75, 50}) {
    // Nearest-rank percentile: the sample at rank ceil(p/100 * n).
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (n - rank >= 10 || p == 50) {
      t.percentile = p;
      t.value = v[std::max<std::size_t>(rank, 1) - 1];
      t.beyond = n - std::max<std::size_t>(rank, 1);
      return t;
    }
  }
  return t;
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- Layers -------------------------------------------------------------------

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Layers::Scope::Scope(Layers& layers, const std::string& name)
    : layers_(layers), index_(layers.recs_.size()) {
  Rec r;
  r.name = name;
  r.parent = layers.open_.empty() ? -1 : layers.open_.back();
  r.start_ns = steady_ns();
  layers.recs_.push_back(std::move(r));
  layers.open_.push_back(static_cast<int>(index_));
}

Layers::Scope::~Scope() {
  layers_.recs_[index_].end_ns = steady_ns();
  layers_.open_.pop_back();
}

double Layers::total(const std::string& name) const {
  double s = 0.0;
  for (const Rec& r : recs_)
    if (r.name == name && r.end_ns >= 0)
      s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  return s;
}

double Layers::last(const std::string& name) const {
  for (auto it = recs_.rbegin(); it != recs_.rend(); ++it)
    if (it->name == name && it->end_ns >= 0)
      return static_cast<double>(it->end_ns - it->start_ns) * 1e-9;
  return 0.0;
}

double Layers::self_seconds(std::size_t i) const {
  std::int64_t ns = recs_[i].end_ns - recs_[i].start_ns;
  for (const Rec& r : recs_)
    if (r.parent == static_cast<int>(i)) ns -= r.end_ns - r.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

double Layers::glue_share(const std::string& root) const {
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    if (recs_[i].name != root) continue;
    const double wall =
        static_cast<double>(recs_[i].end_ns - recs_[i].start_ns) * 1e-9;
    return wall > 0 ? self_seconds(i) / wall : 0.0;
  }
  return 0.0;
}

void Layers::write_chrome_trace(const std::string& path) const {
  // One complete ("X") event per span on a single "setup"-style track, in
  // the same document shape as obs::chrome_trace_json; "self_us" is the
  // span's self time.
  std::int64_t t0 = recs_.empty() ? 0 : recs_.front().start_ns;
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), dpgen::cat("cannot open trace output '", path, "'"));
  out << "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":-1,\"name\":"
         "\"process_name\",\"args\":{\"name\":\"perfbench\"}}";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (r.end_ns < 0) continue;
    char line[512];
    std::snprintf(line, sizeof line,
                  ",\n{\"ph\":\"X\",\"pid\":-1,\"tid\":0,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"perfbench\","
                  "\"args\":{\"self_us\":%.3f}}",
                  static_cast<double>(r.start_ns - t0) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                  r.name.c_str(), self_seconds(i) * 1e6);
    out << line;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{\"spans_dropped\":0}}\n";
  DPGEN_CHECK(out.good(), dpgen::cat("error writing trace '", path, "'"));
}

// ---- the closed loop ------------------------------------------------------------

void Outcome::record(const Solve& s) {
  ++attempted;
  if (!s.ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: solve %lld failed: %s\n", attempted,
                 s.why.c_str());
  }
}

void closed_loop(Outcome& out, double seconds, int min_solves,
                 const std::function<Solve()>& solve) {
  out.record(solve());  // warm-up
  const double t0 = now_s();
  int n = 0;
  while (n < min_solves || now_s() - t0 < seconds) {
    Solve s = solve();
    out.record(s);
    out.solve_s.push_back(s.seconds);
    out.rss_mb.push_back(s.peak_rss_mb);
    ++n;
  }
}

}  // namespace perfbench
