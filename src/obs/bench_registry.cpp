#include "obs/bench_registry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::obs {

namespace {

/// Outlier rejection width: |x - median| > k * scaled MAD drops a sample.
/// 1.4826 makes the MAD a consistent sigma estimate under normal noise,
/// so 3.5 scaled MADs is the usual conservative cut.
constexpr double kOutlierMads = 3.5;
constexpr double kMadSigma = 1.4826;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return (n % 2) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string first_line(const std::string& s) {
  auto pos = s.find('\n');
  return trim(pos == std::string::npos ? s : s.substr(0, pos));
}

/// Short stable hex digest (FNV-1a) — good enough to key archive file
/// names by machine; collisions only cost a spurious gate skip.
std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string run_command(const char* cmd) {
  FILE* pipe = ::popen(cmd, "r");
  if (!pipe) return "";
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe)) out += buf;
  int rc = ::pclose(pipe);
  if (rc != 0) return "";
  return first_line(out);
}

std::string cpu_summary() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown-cpu";
  int processors = 0;
  while (std::getline(in, line)) {
    if (line.rfind("processor", 0) == 0) ++processors;
    if (line.rfind("model name", 0) == 0 && model == "unknown-cpu") {
      auto colon = line.find(':');
      if (colon != std::string::npos)
        model = trim(line.substr(colon + 1));
    }
  }
  if (processors == 0)
    processors = static_cast<int>(std::thread::hardware_concurrency());
  return cat(model, " x", processors);
}

const char* verdict_name(GateVerdict v) {
  switch (v) {
    case GateVerdict::kOk: return "ok";
    case GateVerdict::kRegression: return "regression";
    case GateVerdict::kImprovement: return "improvement";
    case GateVerdict::kNoBaseline: return "no-baseline";
    case GateVerdict::kNotRun: return "not-run";
  }
  return "ok";
}

}  // namespace

BenchRegistry& BenchRegistry::instance() {
  static BenchRegistry reg;
  return reg;
}

bool BenchRegistry::add(const std::string& name,
                        std::function<BenchSample()> fn) {
  if (by_name_.count(name)) return false;
  by_name_[name] = entries_.size();
  entries_.push_back({name, std::move(fn)});
  return true;
}

const BenchEntry* BenchRegistry::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &entries_[it->second];
}

bool BenchRegistry::add_table(const std::string& id,
                              std::function<void()> fn) {
  return tables_.emplace(id, std::move(fn)).second;
}

std::vector<std::string> BenchRegistry::select(
    const std::string& filter) const {
  std::vector<std::string> pats;
  for (const std::string& p : split(filter, ","))
    if (!trim(p).empty()) pats.push_back(trim(p));
  std::vector<std::string> out;
  for (const auto& [name, idx] : by_name_) {
    (void)idx;
    if (pats.empty()) {
      out.push_back(name);
      continue;
    }
    for (const std::string& p : pats) {
      if (name.find(p) != std::string::npos) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;  // std::map iteration is already sorted
}

TrialStats robust_stats(std::vector<double> samples) {
  TrialStats st;
  st.trials = static_cast<int>(samples.size());
  st.samples_s = samples;
  if (samples.empty()) return st;
  st.min_s = *std::min_element(samples.begin(), samples.end());
  st.max_s = *std::max_element(samples.begin(), samples.end());
  double med = median_of(samples);
  std::vector<double> dev;
  dev.reserve(samples.size());
  for (double s : samples) dev.push_back(std::fabs(s - med));
  double mad = median_of(dev);
  std::vector<double> kept;
  if (mad > 0.0) {
    for (double s : samples)
      if (std::fabs(s - med) <= kOutlierMads * kMadSigma * mad)
        kept.push_back(s);
  }
  if (kept.empty()) kept = samples;  // zero MAD: identical samples, keep all
  st.kept = static_cast<int>(kept.size());
  st.median_s = median_of(kept);
  std::vector<double> kept_dev;
  kept_dev.reserve(kept.size());
  for (double s : kept) kept_dev.push_back(std::fabs(s - st.median_s));
  st.mad_s = median_of(kept_dev);
  return st;
}

RunMeta collect_run_meta(int trials) {
  RunMeta meta;
  meta.trials = trials;
  const char* sha = std::getenv("DPGEN_GIT_SHA");
  if (sha && *sha) {
    meta.git_sha = sha;
  } else {
    meta.git_sha = run_command("git rev-parse --short=12 HEAD 2>/dev/null");
    if (meta.git_sha.empty()) meta.git_sha = "unknown";
  }
  meta.machine = cpu_summary();
  meta.fingerprint = fnv1a_hex(meta.machine);
  meta.timestamp = static_cast<long long>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  return meta;
}

BenchRecord run_bench(const BenchEntry& entry, int trials, int warmup,
                      double slowdown) {
  DPGEN_CHECK(trials > 0, "run_bench: trials must be positive");
  for (int i = 0; i < warmup; ++i) (void)entry.run();
  std::vector<double> seconds;
  std::vector<BenchSample> trials_out;
  seconds.reserve(trials);
  trials_out.reserve(trials);
  for (int i = 0; i < trials; ++i) {
    BenchSample s = entry.run();
    s.seconds *= slowdown;
    seconds.push_back(s.seconds);
    trials_out.push_back(std::move(s));
  }
  BenchRecord rec;
  rec.name = entry.name;
  rec.stats = robust_stats(seconds);
  // Attach the metrics of the trial closest to the median: counters from
  // the most representative run, not an average that mixes outliers in.
  std::size_t best = 0;
  double best_gap = std::fabs(seconds[0] - rec.stats.median_s);
  for (std::size_t i = 1; i < seconds.size(); ++i) {
    double gap = std::fabs(seconds[i] - rec.stats.median_s);
    if (gap < best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  rec.metrics = std::move(trials_out[best].metrics);
  return rec;
}

std::string bench_json(const BenchDoc& doc) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("dpgen.bench.v1");
  w.key("git_sha").value(doc.meta.git_sha);
  w.key("machine").value(doc.meta.machine);
  w.key("fingerprint").value(doc.meta.fingerprint);
  w.key("timestamp").value(doc.meta.timestamp);
  w.key("trials").value(doc.meta.trials);
  w.key("benches").begin_array();
  for (const BenchRecord& r : doc.records) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("trials").value(r.stats.trials);
    w.key("kept").value(r.stats.kept);
    w.key("median_s").value(r.stats.median_s);
    w.key("mad_s").value(r.stats.mad_s);
    w.key("min_s").value(r.stats.min_s);
    w.key("max_s").value(r.stats.max_s);
    w.key("samples_s").begin_array();
    for (double s : r.stats.samples_s) w.value(s);
    w.end_array();
    w.key("metrics").begin_object();
    for (const auto& [k, v] : r.metrics) w.key(k).value(v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void write_bench_json(const std::string& path, const BenchDoc& doc) {
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), cat("cannot open '", path, "' for writing"));
  out << bench_json(doc) << "\n";
  DPGEN_CHECK(out.good(), cat("failed writing '", path, "'"));
}

BenchDoc parse_bench_doc(const json::Value& doc) {
  DPGEN_CHECK(doc.is(json::Kind::kObject), "bench doc: not an object");
  DPGEN_CHECK(doc.has("schema") && doc.at("schema").as_string() ==
                                       "dpgen.bench.v1",
              "bench doc: schema tag is not dpgen.bench.v1");
  BenchDoc out;
  out.meta.git_sha = doc.at("git_sha").as_string();
  out.meta.machine = doc.at("machine").as_string();
  out.meta.fingerprint = doc.at("fingerprint").as_string();
  out.meta.timestamp =
      static_cast<long long>(doc.at("timestamp").as_number());
  out.meta.trials = static_cast<int>(doc.at("trials").as_number());
  for (const auto& b : doc.at("benches").as_array()) {
    BenchRecord rec;
    rec.name = b->at("name").as_string();
    rec.stats.trials = static_cast<int>(b->at("trials").as_number());
    rec.stats.kept = static_cast<int>(b->at("kept").as_number());
    rec.stats.median_s = b->at("median_s").as_number();
    rec.stats.mad_s = b->at("mad_s").as_number();
    rec.stats.min_s = b->at("min_s").as_number();
    rec.stats.max_s = b->at("max_s").as_number();
    for (const auto& s : b->at("samples_s").as_array())
      rec.stats.samples_s.push_back(s->as_number());
    for (const auto& [k, v] : b->at("metrics").fields)
      rec.metrics.emplace_back(
          k, v->is(json::Kind::kNumber) ? v->as_number() : 0.0);
    out.records.push_back(std::move(rec));
  }
  return out;
}

GateResult gate(const BenchDoc& baseline, const BenchDoc& run,
                const GateOptions& options) {
  GateResult result;
  result.fingerprint_match =
      baseline.meta.fingerprint == run.meta.fingerprint;
  std::map<std::string, const BenchRecord*> base;
  for (const BenchRecord& r : baseline.records) base[r.name] = &r;
  std::map<std::string, const BenchRecord*> cur;
  for (const BenchRecord& r : run.records) cur[r.name] = &r;

  for (const auto& [name, rec] : cur) {
    GateFinding f;
    f.name = name;
    f.run_s = rec->stats.median_s;
    auto it = base.find(name);
    if (it == base.end()) {
      f.verdict = GateVerdict::kNoBaseline;
      result.findings.push_back(f);
      continue;
    }
    const BenchRecord& b = *it->second;
    f.baseline_s = b.stats.median_s;
    if (f.baseline_s > 0.0) f.ratio = f.run_s / f.baseline_s;
    double noise = 0.0;
    if (b.stats.median_s > 0.0)
      noise = std::max(noise, options.mad_factor * b.stats.mad_s /
                                  b.stats.median_s);
    if (rec->stats.median_s > 0.0)
      noise = std::max(noise, options.mad_factor * rec->stats.mad_s /
                                  rec->stats.median_s);
    f.threshold = std::max(options.min_rel_delta, noise);
    const bool above_abs_floor =
        std::fabs(f.run_s - f.baseline_s) > options.min_abs_delta_s;
    if (f.ratio > 1.0 + f.threshold && above_abs_floor) {
      f.verdict = GateVerdict::kRegression;
      ++result.regressions;
    } else if (f.ratio > 0.0 && f.ratio < 1.0 - f.threshold &&
               above_abs_floor) {
      f.verdict = GateVerdict::kImprovement;
      ++result.improvements;
    }
    result.findings.push_back(f);
  }
  for (const auto& [name, rec] : base) {
    if (cur.count(name)) continue;
    GateFinding f;
    f.name = name;
    f.verdict = GateVerdict::kNotRun;
    f.baseline_s = rec->stats.median_s;
    result.findings.push_back(f);
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const GateFinding& a, const GateFinding& b) {
              return a.name < b.name;
            });
  return result;
}

std::string gate_text(const GateResult& result) {
  std::ostringstream out;
  out << "perf gate: " << result.findings.size() << " benches, "
      << result.regressions << " regression(s), " << result.improvements
      << " improvement(s)";
  if (!result.fingerprint_match) out << " [fingerprint mismatch]";
  out << "\n";
  char buf[160];
  for (const GateFinding& f : result.findings) {
    if (f.verdict == GateVerdict::kNoBaseline) {
      std::snprintf(buf, sizeof buf, "  %-40s %-11s run %.3gs (new)\n",
                    f.name.c_str(), verdict_name(f.verdict), f.run_s);
    } else if (f.verdict == GateVerdict::kNotRun) {
      std::snprintf(buf, sizeof buf, "  %-40s %-11s base %.3gs\n",
                    f.name.c_str(), verdict_name(f.verdict), f.baseline_s);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  %-40s %-11s base %.3gs run %.3gs ratio %.3f "
                    "(threshold ±%.0f%%)\n",
                    f.name.c_str(), verdict_name(f.verdict), f.baseline_s,
                    f.run_s, f.ratio, 100.0 * f.threshold);
    }
    out << buf;
  }
  return out.str();
}

std::string gate_json(const GateResult& result) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("dpgen.benchgate.v1");
  w.key("fingerprint_match").value(result.fingerprint_match);
  w.key("regressions").value(result.regressions);
  w.key("improvements").value(result.improvements);
  w.key("findings").begin_array();
  for (const GateFinding& f : result.findings) {
    w.begin_object();
    w.key("name").value(f.name);
    w.key("verdict").value(verdict_name(f.verdict));
    w.key("baseline_s").value(f.baseline_s);
    w.key("run_s").value(f.run_s);
    w.key("ratio").value(f.ratio);
    w.key("threshold").value(f.threshold);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace dpgen::obs
