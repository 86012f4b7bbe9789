#pragma once
// The launcher: the pre-written half of every run (paper section V), shared
// by the interpreted engine and every generated program.  launch<S> owns
// the run's obs::Session (rings, metrics, profiler; released on every exit
// path), runs each attempt — plan, transport, monitor, World, run_node<S>
// per rank —
// restarts fault-tolerant runs over the surviving ranks from the
// checkpoint store, and writes the trace, report, msgtrace, profile and
// metrics documents (docs/ARCHITECTURE.md).  run_node<double> and
// CheckpointStore<double> are compiled once in dpgen_runtime (driver.cpp),
// so a double-precision caller instantiates only this thin template; other
// scalar types instantiate the driver in the caller's translation unit.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/faults.hpp"
#include "obs/analysis.hpp"
#include "obs/monitor.hpp"
#include "obs/profile.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/driver.hpp"
#include "runtime/order.hpp"
#include "support/str.hpp"

namespace dpgen::runtime {

/// Run-level options every executor shares (engine::EngineOptions adds the
/// engine-only knobs on top).
struct LaunchOptions {
  int ranks = 1;    ///< message-passing ranks (MPI processes in the paper)
  int threads = 1;  ///< worker threads per rank (OpenMP threads)
  PriorityPolicy policy = PriorityPolicy::kColumnMajor;
  std::size_t mailbox_capacity = 0;  ///< 0 = unbounded receive buffers
  /// Ready-queue shards per rank (paper VII.C); 1 = one global queue.
  int queue_shards = 1;
  bool poison_buffers = false;  ///< RunOptions::poison_buffers
  double stall_timeout_seconds = 120.0;
  /// When non-empty, the run is span-traced and the merged timeline is
  /// written here as Chrome trace-event JSON (docs/observability.md).
  std::string trace_json_path;
  /// When non-empty, the run's obs::MetricsRegistry is dumped here as JSON
  /// after the run; the registry is the run's own, so it covers this run
  /// only.
  std::string metrics_json_path;
  /// When non-empty, the run is traced and the attributed performance
  /// report (obs/analysis.hpp) is written here and to LaunchResult::report.
  std::string report_json_path;
  /// When non-empty, causal message tracing is on and the dpgen.msgtrace.v1
  /// document is written here ("-" = records for the report/trace only).
  std::string msgtrace_json_path;
  /// When non-empty, live telemetry (heartbeats, straggler detection) is
  /// appended here as dpgen.events.v1 JSONL ("-" = no event log), sampled
  /// every monitor_interval seconds.
  std::string monitor_path;
  double monitor_interval = 0.05;
  /// Deterministic fault injection into the first attempt's transport
  /// (restarts run fault-free).  Implies fault_tolerant.
  std::optional<minimpi::FaultPlan> fault_plan;
  /// Checkpoint/restart: a TransportFailure re-plans the surviving ranks and
  /// restarts from the CheckpointStore (docs/fault-tolerance.md).
  bool fault_tolerant = false;
  /// Restart attempts allowed before the failure propagates after all.
  int max_restarts = 4;
  /// Fault-tolerant runs only: a rank without progress for this long
  /// declares a transport failure, so dropped messages are recovered by a
  /// restart.  0 = never; keep it well under stall_timeout_seconds.
  double recover_stall_seconds = 0.0;
  /// When non-empty, the checkpoint store is flushed here as
  /// dpgen.checkpoint.v1 JSON every checkpoint_every_tiles completions, at
  /// every restart, and once more after the run succeeds.
  std::string checkpoint_json_path;
  long long checkpoint_every_tiles = 64;
  /// When non-empty, the checkpoint store is seeded from this
  /// dpgen.checkpoint.v1 file: resume an earlier run of the same problem.
  std::string resume_checkpoint_path;
  /// When non-empty, continuous profiling (obs/profile.hpp) is on and the
  /// dpgen.profile.v1 document is written here ("-" = LaunchResult only).
  std::string profile_path;
  double profile_hz = 97.0;  ///< per worker thread, clamped to [1, 10000]
  bool profile_force_cputime = false;  ///< cputime counters even with perf

  /// Applies one generated-program flag (--ranks=R ... --profile-cputime,
  /// the generated usage string's set, plus the debugging flag
  /// --poison-buffers).  Returns false when `arg` is not one; throws
  /// dpgen::Error on a malformed or out-of-range value.
  bool parse_flag(const std::string& arg);
};

/// Labels stamped into the run's documents.
struct LaunchLabels {
  std::string source = "engine";  ///< "engine" | "generated"
  std::string problem;
  IntVec params;
  std::string profile_problem;  ///< profile family label; empty = problem
  /// Codegen passes live during the run (the report's `passes` list).
  std::vector<std::string> passes;
};

/// One attempt's plan, built by the caller's plan(alive) callback.
template <typename S>
struct LaunchPlan {
  std::unique_ptr<ProblemHooks<S>> hooks;  ///< shared by every rank
  TileOrder order;
  /// Ehrhart-predicted work per rank: the monitor's pace baseline, the
  /// report's load-balance audit and the profile's predicted cells.
  std::vector<double> predicted_work;
};

struct LaunchResult {
  /// Per rank of the attempt that finished (fewer after a kill).
  std::vector<RunStats> rank_stats;
  std::optional<obs::AnalysisReport> report;  ///< with report_json_path
  std::optional<obs::ProfileDoc> profile;     ///< with profile_path
  /// With monitor_path: flagged stragglers and heartbeats received.
  std::vector<obs::StragglerFlag> stragglers;
  long long heartbeats = 0;
  /// With msgtrace_json_path: records collected and lost to ring overflow.
  long long msg_records = 0;
  std::uint64_t msg_records_dropped = 0;
  /// Restarts taken, the ranks that died (in failure order) and the fault
  /// injector's tally; all zero/empty on a clean run.
  int restarts = 0;
  std::vector<int> failed_ranks;
  minimpi::FaultStats fault_stats;
};

/// Prints the MONITOR, PROFILE and MSGTRACE summary lines (and straggler
/// warnings on stderr) for whichever of those channels `options` enabled.
void print_summary(const LaunchOptions& options, const LaunchResult& result);

namespace detail {

/// One attempt with the scalar type erased.
struct Attempt {
  TileOrder order;
  std::vector<double> predicted_work;
  std::vector<IntVec> edge_offsets;
  /// Runs every rank of `world`; throws TransportFailure when one fails.
  std::function<std::vector<RunStats>(minimpi::World&, const RunOptions&)>
      run;
};

LaunchResult launch(const std::function<Attempt(int alive)>& plan,
                    const LaunchOptions& options, const LaunchLabels& labels);

}  // namespace detail

/// Runs a problem end to end; `plan(alive)` must return a LaunchPlan<S> for
/// a fleet of `alive` ranks (called once per attempt).
template <typename S, typename PlanFn>
LaunchResult launch(const PlanFn& plan, const LaunchOptions& options,
                    const LaunchLabels& labels) {
  CheckpointStore<S> store;
  CheckpointStore<S>* checkpoint = nullptr;
  std::unique_ptr<ProblemHooks<S>> hooks;
  return detail::launch(
      [&](int alive) {
        LaunchPlan<S> p = plan(alive);
        hooks = std::move(p.hooks);
        if (!checkpoint && (options.fault_tolerant || options.fault_plan)) {
          checkpoint = &store;
          store.set_meta(labels.problem, vec_to_string(labels.params),
                         hooks->dim());
          if (!options.resume_checkpoint_path.empty())
            store.restore_from(
                load_checkpoint_json(options.resume_checkpoint_path));
          if (!options.checkpoint_json_path.empty())
            store.configure_flush(options.checkpoint_json_path,
                                  options.checkpoint_every_tiles);
        }
        detail::Attempt a{std::move(p.order), std::move(p.predicted_work),
                          {}, {}};
        for (int e = 0; e < hooks->num_edges(); ++e)
          a.edge_offsets.push_back(hooks->edge_offset(e));
        a.run = [&](minimpi::World& world, const RunOptions& ropt) {
          std::vector<RunStats> stats(static_cast<std::size_t>(world.size()));
          try {
            world.run([&](minimpi::Comm& comm) {
              stats[static_cast<std::size_t>(comm.rank())] =
                  run_node<S>(*hooks, comm, ropt, checkpoint);
            });
          } catch (const minimpi::TransportFailure&) {
            // The next attempt may re-execute credited tiles, so its drivers
            // screen deliveries (CheckpointStore::replay_possible).
            if (checkpoint) {
              store.enter_replay();
              store.flush();
            }
            throw;
          }
          if (checkpoint) store.flush();
          return stats;
        };
        return a;
      },
      options, labels);
}

}  // namespace dpgen::runtime
