// Sampling profiler + hardware-counter attribution.  See profile.hpp for
// the design; the signal-safety rules live right next to the handler below.

#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "support/error.hpp"
#include "support/str.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#define DPGEN_HAVE_THREAD_TIMERS 1
#else
#define DPGEN_HAVE_THREAD_TIMERS 0
#endif

// Older glibc spells SIGEV_THREAD_ID only through the internal union.
#if DPGEN_HAVE_THREAD_TIMERS
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif

namespace dpgen::obs {

namespace profdetail {

std::atomic<bool> g_frames_on{false};
thread_local ThreadProfState* t_state = nullptr;

// The phase stack is one u32: 5 bits per frame, top of stack in the low
// bits, each entry = phase + 1 (0 marks "no frame").  Push and pop are
// each a single relaxed store, so the signal handler — which can land
// between any two instructions of the owning thread — always reads a
// complete, never-torn stack.  Depth beyond 6 sheds the *oldest* frames
// off the top bits; pops stay balanced and the shed frames decode as
// "lost" (driver nesting is <= 3 deep in practice).
void push_frame(Phase p) {
  ThreadProfState* st = t_state;
  if (!st) return;
  const std::uint32_t cur = st->stack.load(std::memory_order_relaxed);
  st->stack.store((cur << 5) | (static_cast<std::uint32_t>(p) + 1),
                  std::memory_order_relaxed);
}

void pop_frame() {
  ThreadProfState* st = t_state;
  if (!st) return;
  const std::uint32_t cur = st->stack.load(std::memory_order_relaxed);
  st->stack.store(cur >> 5, std::memory_order_relaxed);
}

namespace {

// ---- the sample hot path -------------------------------------------------
// Runs in a SIGPROF handler on the sampled thread itself.  The rules:
// nothing here may allocate, lock, or call anything not async-signal-safe.
// Only lock-free atomic ops on the thread's own state — the state pointer
// arrives in si_value (no TLS lookup, which is not guaranteed
// signal-safe during thread setup), SIGPROF is blocked while the handler
// runs (sigaction default), so the handler never races itself; concurrent
// readers on other threads use relaxed loads and tolerate skew.
void record_sample(ThreadProfState* st) {
  st->samples.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t key = st->stack.load(std::memory_order_relaxed);
  if (key == 0) {
    st->untraced.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint32_t h = key * 2654435761u;  // Fibonacci hashing
  for (int probe = 0; probe < ThreadProfState::kSlots; ++probe) {
    auto& slot =
        st->table[(h + static_cast<std::uint32_t>(probe)) &
                  (ThreadProfState::kSlots - 1)];
    const std::uint32_t k = slot.key.load(std::memory_order_relaxed);
    if (k == 0) slot.key.store(key, std::memory_order_relaxed);
    if (k == 0 || k == key) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  st->dropped.fetch_add(1, std::memory_order_relaxed);
}

void sigprof_handler(int, siginfo_t* si, void*) {
  auto* st = static_cast<ThreadProfState*>(si->si_value.sival_ptr);
  if (st) record_sample(st);
}

void install_handler() {
  static bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = sigprof_handler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    return sigaction(SIGPROF, &sa, nullptr) == 0;
  }();
  (void)installed;
}

bool arm_timer(ThreadProfState* st, double hz) {
#if DPGEN_HAVE_THREAD_TIMERS
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_value.sival_ptr = st;
  sev.sigev_notify_thread_id =
      static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &st->timer_id) != 0) return false;
  const double period_s = 1.0 / hz;
  itimerspec its{};
  its.it_interval.tv_sec = static_cast<time_t>(period_s);
  its.it_interval.tv_nsec =
      static_cast<long>((period_s - std::floor(period_s)) * 1e9);
  if (its.it_interval.tv_sec == 0 && its.it_interval.tv_nsec == 0)
    its.it_interval.tv_nsec = 1000000;  // floor: 1ms
  its.it_value = its.it_interval;
  if (timer_settime(st->timer_id, 0, &its, nullptr) != 0) {
    timer_delete(st->timer_id);
    return false;
  }
  return true;
#else
  (void)st;
  (void)hz;
  return false;
#endif
}

void disarm_timer(ThreadProfState* st) {
#if DPGEN_HAVE_THREAD_TIMERS
  if (st->timer_armed) timer_delete(st->timer_id);
#endif
  st->timer_armed = false;
}

/// Decodes an encoded stack into "rankR;frame;frame" (bottom-first).
std::string decode_stack(std::uint32_t key, int rank) {
  std::uint32_t groups[8];
  int n = 0;
  while (key != 0 && n < 8) {
    groups[n++] = key & 31u;  // n-th entry = n frames down from the top
    key >>= 5;
  }
  std::string out = cat("rank", rank);
  for (int i = n - 1; i >= 0; --i) {
    out += ';';
    if (groups[i] >= 1 &&
        groups[i] <= static_cast<std::uint32_t>(kProfilePhases))
      out += phase_name(static_cast<Phase>(groups[i] - 1));
    else
      out += "lost";  // shed by a deeper-than-6 push
  }
  return out;
}

}  // namespace

}  // namespace profdetail

Profiler& Profiler::instance() {
  static Profiler p;
  return p;
}

void Profiler::start(const ProfileOptions& opt) {
  std::lock_guard<std::mutex> lock(mu_);
  DPGEN_CHECK(!active_.load(std::memory_order_relaxed),
              "profiler: a profiled run is already active");
  opt_ = opt;
  opt_.hz = std::min(10000.0, std::max(1.0, opt.hz));
  states_.clear();
  perf_mode_ = !opt_.force_cputime && HwCounterGroup::perf_available();
  profdetail::install_handler();
  profdetail::g_frames_on.store(true, std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
}

void Profiler::thread_enter(int rank, int thread) {
  using namespace profdetail;
  if (!active() || t_state != nullptr) return;
  auto st = std::make_unique<ThreadProfState>();
  st->rank = rank;
  st->thread = thread;
  st->counters.open(/*force_cputime=*/!perf_mode_);
  st->counters_open = true;
  st->stride = 1;
  st->countdown = 1;
  ThreadProfState* raw = st.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!active()) return;  // raced with stop(); drop the state
    states_.push_back(std::move(st));
  }
  // Arm only after the state is pinned: the first signal may fire
  // immediately and the handler dereferences sival_ptr.
  raw->timer_armed = arm_timer(raw, opt_.hz);
  t_state = raw;
}

void Profiler::thread_exit() {
  using namespace profdetail;
  ThreadProfState* st = t_state;
  if (!st) return;
  t_state = nullptr;
  disarm_timer(st);
  st->counters.close();
  st->counters_open = false;
}

Profiler::RankTotals Profiler::rank_totals(int rank) const {
  RankTotals out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& st : states_) {
    if (st->rank != rank) continue;
    out.samples += st->samples.load(std::memory_order_relaxed);
    out.cycles += st->cycles.load(std::memory_order_relaxed);
    out.instructions += st->instructions.load(std::memory_order_relaxed);
    out.sampled_cells += st->sampled_cells.load(std::memory_order_relaxed);
    out.sampled_exec_ns +=
        st->sampled_exec_ns.load(std::memory_order_relaxed);
  }
  return out;
}

ProfileDoc Profiler::stop() {
  using namespace profdetail;
  std::lock_guard<std::mutex> lock(mu_);
  DPGEN_CHECK(active_.load(std::memory_order_relaxed),
              "profiler: stop() without an active run");
  active_.store(false, std::memory_order_relaxed);
  g_frames_on.store(false, std::memory_order_relaxed);
  // Safety net: a worker that died without thread_exit leaves an armed
  // timer behind; its state outlives it here, so disarm before reading.
  for (auto& st : states_) disarm_timer(st.get());

  ProfileDoc doc;
  doc.source = opt_.source;
  doc.problem = opt_.problem;
  doc.params = opt_.params;
  doc.hz = opt_.hz;
  doc.counters = perf_mode_ ? "perf" : "cputime";
  doc.sampler = "timer";

  ProfileFamily fam;
  fam.name = opt_.problem.empty() ? "unknown" : opt_.problem;
  std::map<std::pair<int, std::uint32_t>, long long> folded;
  int max_rank = -1;
  for (const auto& st : states_) {
    max_rank = std::max(max_rank, st->rank);
    ProfileThreadSummary ts;
    ts.rank = st->rank;
    ts.thread = st->thread;
    ts.samples =
        static_cast<long long>(st->samples.load(std::memory_order_relaxed));
    doc.threads.push_back(ts);
    doc.samples_total += ts.samples;
    const auto untraced = static_cast<long long>(
        st->untraced.load(std::memory_order_relaxed));
    doc.samples_untraced += untraced;
    doc.samples_dropped += static_cast<long long>(
        st->dropped.load(std::memory_order_relaxed));
    if (untraced > 0) folded[{st->rank, 0u}] += untraced;
    for (const auto& slot : st->table) {
      const std::uint32_t key = slot.key.load(std::memory_order_relaxed);
      if (key == 0) continue;
      const auto count = static_cast<long long>(
          slot.count.load(std::memory_order_relaxed));
      if (count == 0) continue;
      const std::uint32_t top = key & 31u;
      if (top >= 1 && top <= static_cast<std::uint32_t>(kProfilePhases))
        doc.phase_samples[top - 1] += count;
      folded[{st->rank, key}] += count;
    }
    fam.tiles += static_cast<long long>(
        st->all_tiles.load(std::memory_order_relaxed));
    fam.cells += static_cast<long long>(
        st->all_cells.load(std::memory_order_relaxed));
    fam.exec_seconds +=
        static_cast<double>(st->all_exec_ns.load(std::memory_order_relaxed)) *
        1e-9;
    fam.sampled_tiles += static_cast<long long>(
        st->sampled_tiles.load(std::memory_order_relaxed));
    fam.sampled_cells += static_cast<long long>(
        st->sampled_cells.load(std::memory_order_relaxed));
    fam.sampled_exec_seconds +=
        static_cast<double>(
            st->sampled_exec_ns.load(std::memory_order_relaxed)) *
        1e-9;
    fam.cycles += st->cycles.load(std::memory_order_relaxed);
    fam.instructions += st->instructions.load(std::memory_order_relaxed);
    fam.llc_misses += st->llc_misses.load(std::memory_order_relaxed);
    fam.branch_misses += st->branch_misses.load(std::memory_order_relaxed);
  }
  doc.nranks = max_rank + 1;
  std::sort(doc.threads.begin(), doc.threads.end(),
            [](const ProfileThreadSummary& a, const ProfileThreadSummary& b) {
              return a.rank != b.rank ? a.rank < b.rank
                                      : a.thread < b.thread;
            });
  for (const auto& [rk, count] : folded) {
    FoldedStack fs;
    fs.stack = rk.second == 0 ? cat("rank", rk.first, ";untraced")
                              : decode_stack(rk.second, rk.first);
    fs.samples = count;
    doc.folded.push_back(fs);
  }
  std::sort(doc.folded.begin(), doc.folded.end(),
            [](const FoldedStack& a, const FoldedStack& b) {
              return a.stack < b.stack;
            });
  doc.families.push_back(std::move(fam));
  return doc;
}

// ---- document rendering --------------------------------------------------

std::string profile_json(const ProfileDoc& doc) {
  json::Writer w;
  w.begin_object();
  w.key("schema").value("dpgen.profile.v1");
  w.key("source").value(doc.source);
  w.key("problem").value(doc.problem);
  w.key("params").begin_array();
  for (Int p : doc.params) w.value(static_cast<long long>(p));
  w.end_array();
  w.key("hz").value(doc.hz);
  w.key("counters").value(doc.counters);
  w.key("sampler").value(doc.sampler);
  w.key("nranks").value(doc.nranks);
  w.key("samples_total").value(doc.samples_total);
  w.key("samples_untraced").value(doc.samples_untraced);
  w.key("samples_dropped").value(doc.samples_dropped);
  w.key("phase_samples").begin_object();
  for (int p = 0; p < kProfilePhases; ++p)
    w.key(phase_name(static_cast<Phase>(p)))
        .value(doc.phase_samples[static_cast<std::size_t>(p)]);
  w.key("untraced").value(doc.samples_untraced);
  w.end_object();
  w.key("folded").begin_array();
  for (const FoldedStack& f : doc.folded)
    w.value(cat(f.stack, " ", f.samples));
  w.end_array();
  w.key("threads").begin_array();
  for (const ProfileThreadSummary& t : doc.threads) {
    w.begin_object();
    w.key("rank").value(t.rank);
    w.key("thread").value(t.thread);
    w.key("samples").value(t.samples);
    w.end_object();
  }
  w.end_array();
  w.key("families").begin_array();
  for (const ProfileFamily& f : doc.families) {
    w.begin_object();
    w.key("name").value(f.name);
    w.key("tiles").value(f.tiles);
    w.key("cells").value(f.cells);
    w.key("exec_seconds").value(f.exec_seconds);
    w.key("sampled_tiles").value(f.sampled_tiles);
    w.key("sampled_cells").value(f.sampled_cells);
    w.key("sampled_exec_seconds").value(f.sampled_exec_seconds);
    w.key("cycles").value(static_cast<unsigned long long>(f.cycles));
    w.key("instructions")
        .value(static_cast<unsigned long long>(f.instructions));
    w.key("llc_misses").value(static_cast<unsigned long long>(f.llc_misses));
    w.key("branch_misses")
        .value(static_cast<unsigned long long>(f.branch_misses));
    w.key("ipc").value(f.ipc());
    w.key("cycles_per_cell").value(f.cycles_per_cell());
    w.key("misses_per_cell").value(f.misses_per_cell());
    w.key("predicted_cells").value(f.predicted_cells);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void write_profile_json(const std::string& path, const ProfileDoc& doc) {
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), cat("profile: cannot open '", path, "'"));
  out << profile_json(doc) << "\n";
  DPGEN_CHECK(out.good(), cat("profile: error writing '", path, "'"));
}

ProfileDoc parse_profile_doc(const json::Value& v) {
  DPGEN_CHECK(v.is(json::Kind::kObject) && v.has("schema") &&
                  v.at("schema").as_string() == "dpgen.profile.v1",
              "not a dpgen.profile.v1 document");
  ProfileDoc doc;
  doc.source = v.at("source").as_string();
  doc.problem = v.at("problem").as_string();
  for (const auto& p : v.at("params").as_array())
    doc.params.push_back(static_cast<Int>(p->as_number()));
  doc.hz = v.at("hz").as_number();
  doc.counters = v.at("counters").as_string();
  doc.sampler = v.at("sampler").as_string();
  doc.nranks = static_cast<int>(v.at("nranks").as_number());
  doc.samples_total =
      static_cast<long long>(v.at("samples_total").as_number());
  doc.samples_untraced =
      static_cast<long long>(v.at("samples_untraced").as_number());
  doc.samples_dropped =
      static_cast<long long>(v.at("samples_dropped").as_number());
  const json::Value& ps = v.at("phase_samples");
  for (int p = 0; p < kProfilePhases; ++p) {
    const char* name = phase_name(static_cast<Phase>(p));
    if (ps.has(name))
      doc.phase_samples[static_cast<std::size_t>(p)] =
          static_cast<long long>(ps.at(name).as_number());
  }
  for (const auto& line : v.at("folded").as_array()) {
    const std::string& s = line->as_string();
    const auto space = s.rfind(' ');
    DPGEN_CHECK(space != std::string::npos, "profile: bad folded line");
    FoldedStack fs;
    fs.stack = s.substr(0, space);
    fs.samples = std::atoll(s.c_str() + space + 1);
    doc.folded.push_back(std::move(fs));
  }
  for (const auto& t : v.at("threads").as_array()) {
    ProfileThreadSummary ts;
    ts.rank = static_cast<int>(t->at("rank").as_number());
    ts.thread = static_cast<int>(t->at("thread").as_number());
    ts.samples = static_cast<long long>(t->at("samples").as_number());
    doc.threads.push_back(ts);
  }
  for (const auto& f : v.at("families").as_array()) {
    ProfileFamily fam;
    fam.name = f->at("name").as_string();
    fam.tiles = static_cast<long long>(f->at("tiles").as_number());
    fam.cells = static_cast<long long>(f->at("cells").as_number());
    fam.exec_seconds = f->at("exec_seconds").as_number();
    fam.sampled_tiles =
        static_cast<long long>(f->at("sampled_tiles").as_number());
    fam.sampled_cells =
        static_cast<long long>(f->at("sampled_cells").as_number());
    fam.sampled_exec_seconds = f->at("sampled_exec_seconds").as_number();
    fam.cycles = static_cast<std::uint64_t>(f->at("cycles").as_number());
    fam.instructions =
        static_cast<std::uint64_t>(f->at("instructions").as_number());
    fam.llc_misses =
        static_cast<std::uint64_t>(f->at("llc_misses").as_number());
    fam.branch_misses =
        static_cast<std::uint64_t>(f->at("branch_misses").as_number());
    fam.predicted_cells = f->at("predicted_cells").as_number();
    doc.families.push_back(std::move(fam));
  }
  return doc;
}

// ---- flame (icicle) view -------------------------------------------------

namespace {

struct FlameNode {
  std::map<std::string, FlameNode> kids;
  long long self = 0;
  long long total = 0;
};

long long fill_totals(FlameNode& n) {
  n.total = n.self;
  for (auto& [name, kid] : n.kids) n.total += fill_totals(kid);
  return n.total;
}

/// Same palette family as sim::series_svg, keyed by frame name so a phase
/// keeps its colour across ranks and documents.
const char* flame_color(const std::string& name) {
  static const char* kPalette[] = {"#4e79a7", "#f28e2b", "#e15759",
                                   "#76b7b2", "#59a14f", "#edc948",
                                   "#b07aa1", "#ff9da7", "#9c755f",
                                   "#bab0ac"};
  std::size_t h = 1469598103u;
  for (char c : name) h = (h ^ static_cast<std::size_t>(c)) * 1099511628211u;
  return kPalette[h % (sizeof(kPalette) / sizeof(kPalette[0]))];
}

void render_node(const FlameNode& n, const std::string& name, double x0,
                 double width_per_sample, int depth, int row_h,
                 std::string* svg) {
  const double w = static_cast<double>(n.total) * width_per_sample;
  if (w < 0.5) return;
  const int y = depth * row_h;
  *svg += cat("<g><title>", name, ": ", n.total, " samples</title>",
              "<rect x=\"", x0, "\" y=\"", y, "\" width=\"", w,
              "\" height=\"", row_h - 1, "\" fill=\"", flame_color(name),
              "\" stroke=\"#fff\" stroke-width=\"0.5\"/>");
  if (w > 40)
    *svg += cat("<text x=\"", x0 + 3, "\" y=\"", y + row_h - 5,
                "\" font-size=\"11\" fill=\"#fff\">", name, "</text>");
  *svg += "</g>\n";
  double x = x0 + static_cast<double>(n.self) * width_per_sample;
  for (const auto& [kid_name, kid] : n.kids) {
    render_node(kid, kid_name, x, width_per_sample, depth + 1, row_h, svg);
    x += static_cast<double>(kid.total) * width_per_sample;
  }
}

int tree_depth(const FlameNode& n) {
  int d = 0;
  for (const auto& [name, kid] : n.kids)
    d = std::max(d, 1 + tree_depth(kid));
  return d;
}

}  // namespace

std::string profile_flame_html(const ProfileDoc& doc) {
  // One icicle per rank: root = the rank, children = phase frames.  Every
  // rank gets one, so a rank (or a whole run) too short to be sampled shows
  // as an empty icicle rather than vanishing from the view.
  std::map<std::string, FlameNode> roots;
  for (int r = 0; r < doc.nranks; ++r) roots[cat("rank", r)];
  for (const FoldedStack& f : doc.folded) {
    FlameNode* node = nullptr;
    std::size_t start = 0;
    std::string root_name;
    while (start <= f.stack.size()) {
      const std::size_t semi = f.stack.find(';', start);
      const std::string frame =
          f.stack.substr(start, semi == std::string::npos ? std::string::npos
                                                          : semi - start);
      if (node == nullptr) {
        root_name = frame;
        node = &roots[frame];
      } else {
        node = &node->kids[frame];
      }
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
    if (node) node->self += f.samples;
  }

  std::string html = cat(
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>dpgen "
      "profile flame</title></head>\n<body style=\"font-family:sans-serif\">"
      "\n<h1>dpgen profile: ", doc.problem.empty() ? "?" : doc.problem,
      "</h1>\n<p>source ", doc.source, ", counters ", doc.counters,
      ", sampler ", doc.sampler, " @ ", doc.hz, " Hz, ", doc.samples_total,
      " samples (", doc.samples_untraced, " untraced, ", doc.samples_dropped,
      " dropped)</p>\n");
  const int kWidth = 760;
  const int kRowH = 18;
  for (auto& [rank_name, root] : roots) {
    fill_totals(root);
    const int depth = 1 + tree_depth(root);
    const int height = depth * kRowH;
    std::string svg;
    if (root.total > 0)
      render_node(root, rank_name, 0.0,
                  static_cast<double>(kWidth) /
                      static_cast<double>(root.total),
                  0, kRowH, &svg);
    html += cat("<h2>", rank_name, " (", root.total, " samples)</h2>\n",
                "<svg width=\"", kWidth, "\" height=\"", height,
                "\" xmlns=\"http://www.w3.org/2000/svg\" style=\"background:"
                "#fafafa;border:1px solid #ddd\">\n", svg, "</svg>\n");
  }
  html += "</body></html>\n";
  return html;
}

}  // namespace dpgen::obs
