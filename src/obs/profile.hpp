#pragma once
// Continuous profiling: a per-thread sampling profiler plus hardware-counter
// attribution per executed tile, feeding the per-problem cost model the
// autotuner (ROADMAP item 2) consumes.
//
// Two measurement channels, both allocation-free on the hot path:
//
//   * Samples.  Each registered worker thread arms a POSIX timer
//     (CLOCK_MONOTONIC, SIGEV_THREAD_ID -> SIGPROF) at a configurable Hz.
//     The signal handler attributes the sample to the current ScopedSpan
//     phase stack — encoded in ONE atomic u32 per thread, 5 bits per frame
//     (phase + 1), pushed/popped by a single relaxed store each — so the
//     handler never sees a torn stack and needs no unwinder, no TLS lookup
//     (the per-thread state arrives in sigev_value.sival_ptr) and no
//     allocation: counts land in a fixed 64-slot open-addressing table.
//
//   * Counters.  Every worker owns an obs::HwCounterGroup (perf group or
//     CLOCK_THREAD_CPUTIME fallback; see hwcounters.hpp).  Reading it
//     around *every* tile would blow the < 3% overhead budget on tiny-tile
//     workloads, so tiles are counter-sampled with an adaptive stride:
//     every Kth tile is wrapped exactly (begin/end reads = an exact
//     measurement window), and K scales up for sub-2us tiles and back down
//     for long ones.  All-tile totals (tiles / cells / wall ns) ride the
//     driver's existing per-tile clock pair, so the derived cycles-per-cell
//     is an honest ratio of sampled counters over sampled cells.
//
// Results flush as a schema-stable dpgen.profile.v1 document
// (tools/profile_schema.json): phase-bucketed sample histograms, folded
// stacks ("rank0;send;pack N") for the flame view, per-thread sample
// counts and per-problem-family derived metrics (IPC, cycles/cell,
// misses/cell) against the Ehrhart-predicted cell count.
//
// Wiring (the same four ways every obs layer ships): EngineOptions::
// {profile_path,profile_hz}, generated programs' --profile=/--profile-hz=,
// sim synthetic profiles from DES time, and dpgen-top live IPC /
// cycles-per-cell columns via Profiler::rank_totals.

#include <array>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/hwcounters.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/vec.hpp"

namespace dpgen::obs {

struct ProfileOptions {
  /// Sampling frequency per thread (clamped to [1, 10000]).
  double hz = 97.0;
  /// Skip the perf probe and run every thread's counter group in
  /// CLOCK_THREAD_CPUTIME mode (the forced-fallback test knob; the same
  /// path runs automatically when perf events are unavailable).
  bool force_cputime = false;
  std::string source = "engine";  ///< "engine" | "generated" | "sim"
  std::string problem;
  IntVec params;
};

/// Per-problem-family cost-model row.  One engine/generated run profiles
/// one family; the analyzer's cost table merges rows across documents.
struct ProfileFamily {
  std::string name;
  long long tiles = 0;          ///< tiles executed (all, not just sampled)
  long long cells = 0;          ///< cells of those tiles
  double exec_seconds = 0.0;    ///< wall time inside execute_tile, all tiles
  long long sampled_tiles = 0;  ///< tiles wrapped in exact counter windows
  long long sampled_cells = 0;
  double sampled_exec_seconds = 0.0;
  std::uint64_t cycles = 0;  ///< thread CPU ns in cputime mode (see doc)
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;
  /// Ehrhart-predicted cell total for the run's parameters (the cost
  /// table's "predicted" column); set by the caller after stop().
  double predicted_cells = 0.0;

  double ipc() const {
    return cycles > 0 && instructions > 0
               ? static_cast<double>(instructions) /
                     static_cast<double>(cycles)
               : 0.0;
  }
  double cycles_per_cell() const {
    return sampled_cells > 0
               ? static_cast<double>(cycles) /
                     static_cast<double>(sampled_cells)
               : 0.0;
  }
  double misses_per_cell() const {
    return sampled_cells > 0
               ? static_cast<double>(llc_misses) /
                     static_cast<double>(sampled_cells)
               : 0.0;
  }
};

struct ProfileThreadSummary {
  int rank = -1;
  int thread = 0;
  long long samples = 0;
};

/// One folded-stack line: semicolon-joined frames rooted at the rank
/// ("rank0;send;pack") and the sample count attributed to exactly that
/// stack (flamegraph-style folded format).
struct FoldedStack {
  std::string stack;
  long long samples = 0;
};

inline constexpr int kProfilePhases = static_cast<int>(Phase::kPhaseCount);

/// A dpgen.profile.v1 document (in-memory form).
struct ProfileDoc {
  std::string source = "engine";
  std::string problem;
  IntVec params;
  double hz = 0.0;
  std::string counters = "cputime";  ///< "perf" | "cputime" | "sim"
  std::string sampler = "timer";     ///< "timer" | "synthetic"
  int nranks = 0;
  long long samples_total = 0;
  long long samples_untraced = 0;  ///< taken outside any ScopedSpan frame
  long long samples_dropped = 0;   ///< sample-table overflow
  /// Samples whose top-of-stack frame was the given phase (self time).
  std::array<long long, kProfilePhases> phase_samples{};
  std::vector<FoldedStack> folded;
  std::vector<ProfileThreadSummary> threads;
  std::vector<ProfileFamily> families;
};

/// Renders / writes / parses the schema-stable document.
std::string profile_json(const ProfileDoc& doc);
void write_profile_json(const std::string& path, const ProfileDoc& doc);
ProfileDoc parse_profile_doc(const json::Value& doc);

/// Self-contained HTML icicle (flame) view of the folded stacks, one
/// icicle per rank (empty for a rank with no samples), in the series_svg
/// visual style (inline SVG, no JS).
std::string profile_flame_html(const ProfileDoc& doc);

namespace profdetail {

/// Everything the signal handler and the tile hot path touch for one
/// thread.  Single logical writer per field (the owning thread or its own
/// handler — SIGPROF is blocked while the handler runs, so the handler
/// never interrupts itself); cross-thread readers (rank_totals, final
/// collection) use relaxed loads and tolerate slight skew.
struct ThreadProfState {
  int rank = -1;
  int thread = 0;

  // ---- sampling (written by the signal handler) ----
  std::atomic<std::uint32_t> stack{0};  ///< encoded phase stack (trace.hpp)
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> untraced{0};
  std::atomic<std::uint64_t> dropped{0};
  static constexpr int kSlots = 64;  ///< distinct stacks per thread (power of 2)
  struct SampleSlot {
    std::atomic<std::uint32_t> key{0};  ///< encoded stack; 0 = empty slot
    std::atomic<std::uint32_t> count{0};
  };
  SampleSlot table[kSlots];

  // ---- timer ----
  bool timer_armed = false;
  timer_t timer_id{};

  // ---- tile counter sampling (written by the owning worker thread) ----
  HwCounterGroup counters;
  bool counters_open = false;
  HwCounterValues window_begin{};
  int stride = 1;     ///< measure every stride-th tile
  int countdown = 1;  ///< tiles until the next measured window
  std::atomic<std::uint64_t> sampled_tiles{0};
  std::atomic<std::uint64_t> sampled_cells{0};
  std::atomic<std::uint64_t> sampled_exec_ns{0};
  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> llc_misses{0};
  std::atomic<std::uint64_t> branch_misses{0};
  std::atomic<std::uint64_t> all_tiles{0};
  std::atomic<std::uint64_t> all_cells{0};
  std::atomic<std::uint64_t> all_exec_ns{0};
};

extern thread_local ThreadProfState* t_state;

/// Tile windows shorter than this adapt the stride up (toward
/// kMaxStride); longer than kLongTileNs adapt it back down toward 1.
inline constexpr std::int64_t kShortTileNs = 2000;
inline constexpr std::int64_t kLongTileNs = 50000;
inline constexpr int kMaxStride = 64;

}  // namespace profdetail

/// Process-wide sampling profiler (SIGPROF handler state is inherently
/// global).  One active run at a time: a profiling obs::Session start()s
/// it, worker threads register with thread_enter / thread_exit, stop()
/// disarms and aggregates the document.
class Profiler {
 public:
  static Profiler& instance();

  /// True while a profiled run is active (one relaxed load; the driver
  /// checks Session::profiling() instead on the per-tile path).
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// True when the active run reads real perf events ("perf" mode).

  /// Arms the profiler: decides the counter mode once (perf probe unless
  /// forced to cputime), installs the SIGPROF handler, enables ScopedSpan
  /// frame maintenance.  Throws if a run is already active.
  void start(const ProfileOptions& opt);

  /// Disarms and aggregates everything the run's threads recorded into a
  /// dpgen.profile.v1 document.  Threads should have exited (thread_exit);
  /// stragglers' timers are disarmed here as a safety net.
  ProfileDoc stop();

  /// Registers the calling thread: opens its counter group, arms its
  /// sampling timer, publishes its state for the signal handler.  No-op
  /// when the profiler is inactive.
  void thread_enter(int rank, int thread);
  /// Unregisters the calling thread (disarms its timer, closes counters).
  void thread_exit();

  /// Live per-rank counter totals for dpgen-top's IPC / cycles-per-cell
  /// columns (relaxed reads; takes the registry mutex, so call it at
  /// monitor cadence, never per tile).
  struct RankTotals {
    std::uint64_t samples = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t sampled_cells = 0;
    std::uint64_t sampled_exec_ns = 0;
  };
  RankTotals rank_totals(int rank) const;

  // ---- per-tile hot path (driver; call only when the Session profiles) ---

  /// Opens an exact counter window when this tile is due for measurement;
  /// returns whether it did (pass the result to tile_end).
  static bool tile_begin() {
    using namespace profdetail;
    ThreadProfState* st = t_state;
    if (!st || !st->counters_open) return false;
    if (--st->countdown > 0) return false;
    st->counters.read(&st->window_begin);
    return true;
  }

  /// Closes the window (when `sampled`) and folds this tile into the
  /// all-tile totals.  `exec_ns` is the driver's existing per-tile clock
  /// pair — no extra clock reads on the unsampled path.
  static void tile_end(bool sampled, long long cells, std::int64_t exec_ns) {
    using namespace profdetail;
    ThreadProfState* st = t_state;
    if (!st) return;
    st->all_tiles.fetch_add(1, std::memory_order_relaxed);
    st->all_cells.fetch_add(static_cast<std::uint64_t>(cells > 0 ? cells : 0),
                            std::memory_order_relaxed);
    st->all_exec_ns.fetch_add(
        static_cast<std::uint64_t>(exec_ns > 0 ? exec_ns : 0),
        std::memory_order_relaxed);
    if (!sampled) return;
    HwCounterValues end;
    st->counters.read(&end);
    st->cycles.fetch_add(end.cycles - st->window_begin.cycles,
                         std::memory_order_relaxed);
    st->instructions.fetch_add(
        end.instructions - st->window_begin.instructions,
        std::memory_order_relaxed);
    st->llc_misses.fetch_add(end.llc_misses - st->window_begin.llc_misses,
                             std::memory_order_relaxed);
    st->branch_misses.fetch_add(
        end.branch_misses - st->window_begin.branch_misses,
        std::memory_order_relaxed);
    st->sampled_tiles.fetch_add(1, std::memory_order_relaxed);
    st->sampled_cells.fetch_add(
        static_cast<std::uint64_t>(cells > 0 ? cells : 0),
        std::memory_order_relaxed);
    st->sampled_exec_ns.fetch_add(
        static_cast<std::uint64_t>(exec_ns > 0 ? exec_ns : 0),
        std::memory_order_relaxed);
    // Adapt: two read syscalls per window are noise for a 50us tile but
    // real overhead for a sub-2us one, so short tiles stretch the stride
    // (amortising the window over up to kMaxStride tiles) and long tiles
    // snap it back to every-tile coverage.
    if (exec_ns < kShortTileNs) {
      if (st->stride < kMaxStride) st->stride *= 2;
    } else if (exec_ns > kLongTileNs) {
      st->stride = st->stride > 1 ? st->stride / 2 : 1;
    }
    st->countdown = st->stride;
  }

 private:
  Profiler() = default;

  std::atomic<bool> active_{false};
  bool perf_mode_ = false;
  ProfileOptions opt_;
  mutable std::mutex mu_;  ///< guards states_ growth and stop()
  std::vector<std::unique_ptr<profdetail::ThreadProfState>> states_;
};

/// RAII worker-thread registration for the driver: enters on construction
/// when `enabled` (Session::profiling()) and the profiler is active, exits
/// on destruction.
class ProfileThreadScope {
 public:
  ProfileThreadScope(bool enabled, int rank, int thread) {
    if (enabled && Profiler::instance().active()) {
      Profiler::instance().thread_enter(rank, thread);
      entered_ = true;
    }
  }
  ~ProfileThreadScope() {
    if (entered_) Profiler::instance().thread_exit();
  }
  ProfileThreadScope(const ProfileThreadScope&) = delete;
  ProfileThreadScope& operator=(const ProfileThreadScope&) = delete;

 private:
  bool entered_ = false;
};

/// Manual frame push for phases that are not lexically scoped (the
/// driver's idle stretch spans loop iterations).  Returns whether a frame
/// was pushed; pass the result to profile_frame_pop.  Like ScopedSpan's
/// frames, it compiles out with DPGEN_TRACE=0.
inline bool profile_frame_push(Phase p) {
  if (!kTraceCompiled || !profdetail::frames_on()) return false;
  profdetail::push_frame(p);
  return true;
}
inline void profile_frame_pop(bool pushed) {
  if (pushed) profdetail::pop_frame();
}

}  // namespace dpgen::obs
