#pragma once
// Live run telemetry (ISSUE 6): per-rank heartbeats, periodic scheduler
// snapshots, and an online straggler detector.
//
// Everything post-hoc in obs/ (traces, dpgen.report.v1, bench baselines)
// only exists after a run ends; the Monitor is the *live* view.  Each rank
// publishes a RankSnapshot into a double-buffered seqlock slot whenever the
// sampler asks for one, so the driver's steady-state loop pays exactly one
// relaxed atomic load per tile (claim()) and zero allocations — the PR 2
// hot-path invariant holds with monitoring on.
//
// Snapshots are consumed two ways:
//   * an append-only `dpgen.events.v1` JSONL event log (one JSON object per
//     line: run_start / heartbeat / straggler / stall_warning / run_end),
//     schema-checked by tools/events_schema.json like the report and bench
//     documents;
//   * the in-process MonitorHub registry, which `dpgen-top` polls to render
//     a refreshing per-rank table and HTML dashboard.
//
// Straggler detection is *pace*-based rather than progress-fraction-based:
// in a wavefront DP the downstream ranks legitimately start late (pipeline
// fill) and spend long stretches dependency-starved, so comparing completed
// fractions at the same wall instant would flag perfectly healthy ranks.
// Instead each rank is clocked only over its own *active* time — detector
// ticks where it completed a tile, had ready tiles queued, or had workers
// inside a kernel, each weighted by the fraction of its workers actually
// busy — and its progress is scaled by the Ehrhart-predicted work share
// W_r the planner assigned (per-rank tiles are not equal-cost):
//
//   pace_r = (executed_r / owned_r) * W_r / active_seconds_r
//
// i.e. predicted cells completed per second of actually-usable time.  On a
// balanced machine every rank converges to the same cells/s regardless of
// where the wavefront serialises; a slow node falls below while the ranks
// it starves stay at full pace (their starved ticks don't count).  A rank
// is flagged when pace < `pace_floor` x median(pace) for `lag_consecutive`
// consecutive detector ticks after a short warmup.  Finished ranks freeze
// their final pace: they keep anchoring the median, stay quiet on balanced
// runs even at the drain phase (a frozen healthy pace sits at the median),
// and a straggler whose stage serialised before its peers even started is
// still caught retrospectively once the fleet median forms.
//
// Time is injected, not assumed: the engine publishes wall time (now_s()),
// the simulator publishes DES time and drives tick() from the event loop,
// so detector behaviour is testable deterministically.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dpgen::obs {

/// One rank's instantaneous state, as published into the seqlock slot and
/// echoed on heartbeat events.  `t_s` is seconds since run start on the
/// publisher's clock (wall for engine/generated runs, DES for the sim).
struct RankSnapshot {
  long long epoch = 0;  ///< heartbeat number, assigned by the Monitor
  double t_s = 0.0;
  long long executed = 0;
  /// Cells of tiles *started* so far, credited at dispatch (0 = publisher
  /// can't count cells).  The detector prefers this over tile counts: tile
  /// costs are heavy-tailed, so tiles-at-average-cost overstates early
  /// progress for ranks whose cheap boundary tiles finish first, and
  /// completion-credit is a step function whose flats (a worker inside one
  /// expensive tile) would read as stalls.
  long long executed_cells = 0;
  long long owned = 0;
  long long pending_tiles = 0;
  long long ready_tiles = 0;
  long long buffered_edges = 0;
  long long blocked_senders = 0;
  long long bytes_sent = 0;
  long long messages_sent = 0;
  long long progress_marker = 0;
  /// Workers currently inside a tile kernel (busy cores in the sim), and
  /// the rank's total worker count.  Their ratio weights the detector's
  /// active-time accounting: a tick spent with 1 of 2 workers busy counts
  /// as half a tick, so a rank trickle-fed by a slow upstream is judged
  /// at its true per-worker speed instead of half of it.
  long long active_workers = 0;
  long long workers = 1;
  /// Messages waiting in this rank's mailbox when the snapshot was taken —
  /// the live backpressure gauge (a persistently deep mailbox means the
  /// rank polls slower than its upstreams send).
  long long mailbox_depth = 0;
  /// Continuous-profiling totals for this rank (obs::Profiler::rank_totals;
  /// all zero when the run is not profiled).  `prof_cycles` counts thread
  /// CPU ns instead of cycles when the profiler runs in cputime mode —
  /// consumers derive IPC only when prof_instructions > 0.
  long long prof_cycles = 0;
  long long prof_instructions = 0;
  long long prof_sampled_cells = 0;
  long long prof_sampled_exec_ns = 0;
};

/// A straggler verdict: `rank` completed work at `pace` predicted-cells per
/// active second against a fleet median of `median_pace`;
/// `lag` = 1 - pace/median.
struct StragglerFlag {
  int rank = -1;
  double t_s = 0.0;
  double pace = 0.0;
  double median_pace = 0.0;
  double lag = 0.0;
};

struct MonitorOptions {
  int nranks = 1;
  /// Sampling / detector period in publisher-clock seconds.
  double interval_s = 0.05;
  /// Append-only dpgen.events.v1 JSONL path ("" = no event log).
  std::string events_path;
  /// Ehrhart-predicted per-rank work share (cells or tiles; only ratios
  /// matter).  Normalises pace across ranks whose tiles differ in cost and
  /// is echoed on run_start.  Empty (or not one positive entry per rank) =
  /// unknown: paces fall back to plain owned-fractions per active second.
  std::vector<double> predicted_work;
  /// Flag a rank when pace < pace_floor * median(pace)...
  double pace_floor = 0.5;
  /// ...for this many consecutive detector ticks...
  int lag_consecutive = 2;
  /// ...once t >= warmup_s (negative = default 2 * interval_s).
  double warmup_s = -1.0;
  /// A rank's pace joins the median (and can be flagged) only after it has
  /// completed this many tiles over this many active ticks.  Below either
  /// threshold the estimate is quantisation noise — one cheap boundary
  /// tile finishing inside the first interval reads as a severalfold
  /// pace, and a single expensive tile as a severalfold deficit.
  long long min_executed_tiles = 3;
  int min_active_ticks = 3;
  /// Spawn a wall-clock sampler thread (engine runs).  The simulator sets
  /// this false and drives tick() from DES time instead.
  bool sampler_thread = true;
  std::string source = "engine";  ///< "engine" | "sim" | "generated"
  std::string problem;            ///< problem name, for run_start
  /// Append to an existing event log instead of truncating it.  The
  /// fault-tolerant engine opens one Monitor per restart attempt; the
  /// attempts after the first append, so a recovered run leaves a single
  /// continuous JSONL history (rank_failed / restart events included).
  bool append = false;
};

class Monitor {
 public:
  explicit Monitor(MonitorOptions opt);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // ---- hot path (publisher rank threads) ----

  /// True when the sampler asked for a fresh snapshot from `rank`.  One
  /// relaxed load in the common (false) case; claiming clears the flag so
  /// at most one worker per rank pays for the snapshot per interval.
  bool claim(int rank) {
    Slot& sl = slots_[static_cast<std::size_t>(rank)];
    if (!sl.want.load(std::memory_order_relaxed)) return false;
    return sl.want.exchange(false, std::memory_order_relaxed);
  }

  /// Publishes `snap` into rank's seqlock slot (epoch is assigned here) and
  /// appends a heartbeat event.  Single writer per rank; readers never
  /// block it.
  void publish(int rank, const RankSnapshot& snap);

  /// Records a stall warning (driver, at 50% of the stall timeout).
  void stall_warning(int rank, const RankSnapshot& snap, double waited_s,
                     double timeout_s);

  /// Records a rank declared dead by the fault layer (fault-tolerant
  /// engine runs): emits a `rank_failed` event carrying the failure
  /// reason string.
  void rank_failed(int rank, const std::string& reason);

  /// Records a checkpoint restart: emits a `restart` event with the
  /// 1-based attempt number and the surviving rank count.
  void restart_event(int attempt, int alive);

  // ---- sampler / simulator ----

  /// Seconds since Monitor construction on the wall clock.
  double now_s() const;

  /// One sampler step at publisher-clock time `t_s`: raises every rank's
  /// want flag and runs the straggler detector over the latest snapshots.
  /// Called by the internal sampler thread (engine) or the DES loop (sim).
  void tick(double t_s);

  /// Stops the sampler, runs a final detector pass at `t_end_s` (negative =
  /// now_s()), and writes the run_end event.  Idempotent; the destructor
  /// calls it too.
  void stop(double t_end_s = -1.0);

  // ---- readers (dpgen-top, tests) ----

  /// Latest snapshot for `rank` (epoch 0 = none published yet).  Lock-free
  /// seqlock read; safe concurrently with publish().
  RankSnapshot latest(int rank) const;
  std::vector<RankSnapshot> latest_all() const;

  std::vector<StragglerFlag> stragglers() const;
  long long heartbeats() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }
  long long stall_warnings() const {
    return stall_warnings_.load(std::memory_order_relaxed);
  }
  long long rank_failures() const {
    return rank_failures_.load(std::memory_order_relaxed);
  }
  const MonitorOptions& options() const { return opt_; }

 private:
  // The two snapshot buffers mirror RankSnapshot with relaxed atomics so a
  // lapped reader observes torn-but-well-defined values (discarded by the
  // seq recheck) instead of a data race.
  struct Buf {
    std::atomic<long long> epoch{0};
    std::atomic<double> t_s{0.0};
    std::atomic<long long> executed{0};
    std::atomic<long long> executed_cells{0};
    std::atomic<long long> owned{0};
    std::atomic<long long> pending_tiles{0};
    std::atomic<long long> ready_tiles{0};
    std::atomic<long long> buffered_edges{0};
    std::atomic<long long> blocked_senders{0};
    std::atomic<long long> bytes_sent{0};
    std::atomic<long long> messages_sent{0};
    std::atomic<long long> progress_marker{0};
    std::atomic<long long> active_workers{0};
    std::atomic<long long> workers{1};
    std::atomic<long long> mailbox_depth{0};
    std::atomic<long long> prof_cycles{0};
    std::atomic<long long> prof_instructions{0};
    std::atomic<long long> prof_sampled_cells{0};
    std::atomic<long long> prof_sampled_exec_ns{0};
  };
  struct Slot {
    std::atomic<std::uint32_t> seq{0};  ///< even; (seq >> 1) & 1 = live buf
    Buf buf[2];
    std::atomic<bool> want{false};
    long long epoch = 0;  ///< publisher-private heartbeat counter
  };
  /// Per-rank detector state (guarded by det_mu_).
  struct Det {
    long long last_executed = 0;  ///< executed count at the previous tick
    double active_s = 0.0;    ///< accumulated active time (see header doc)
    double pace = 0.0;        ///< latest (or frozen final) pace
    bool valid = false;       ///< pace is meaningful this tick
    bool finished = false;    ///< executed == owned observed; pace frozen
    int lag_count = 0;        ///< consecutive below-floor ticks
    bool flagged = false;     ///< already reported (sticky)
  };

  void detect_locked(double t_s);
  void event_line(const std::string& line);

  MonitorOptions opt_;
  /// predicted_work is usable: one positive entry per rank.
  bool use_weights_ = false;
  std::chrono::steady_clock::time_point start_;
  std::unique_ptr<Slot[]> slots_;

  std::atomic<long long> heartbeats_{0};
  std::atomic<long long> stall_warnings_{0};
  std::atomic<long long> rank_failures_{0};

  mutable std::mutex det_mu_;
  std::vector<Det> det_;
  std::vector<StragglerFlag> flags_;

  std::mutex ev_mu_;
  std::ofstream events_;
  bool events_open_ = false;

  std::mutex stop_mu_;
  bool stopped_ = false;
  std::thread sampler_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool quit_ = false;
};

/// Process-wide registry of live Monitors, so `dpgen-top` (which runs the
/// engine in-process — ranks are threads, not processes) can watch a run
/// it did not create.  Monitors register on construction and unregister on
/// destruction; visit() holds the registry lock for the callback's whole
/// duration, so the pointers it passes cannot dangle.
class MonitorHub {
 public:
  static MonitorHub& instance();

  template <typename Fn>
  void visit(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Monitor* m : monitors_) fn(*m);
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu_);
    return monitors_.size();
  }

 private:
  friend class Monitor;
  void add(Monitor* m);
  void remove(Monitor* m);

  std::mutex mu_;
  std::vector<Monitor*> monitors_;
};

}  // namespace dpgen::obs
