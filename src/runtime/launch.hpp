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
#include "runtime/run_state.hpp"
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

  /// Applies one generated-program flag (--ranks=R ... --poison-buffers,
  /// the set usage() lists).  Returns false when `arg` is not one; throws
  /// dpgen::Error on a malformed or out-of-range value.
  bool parse_flag(const std::string& arg);
  /// "[--ranks=R] [--threads=T] ...": every flag parse_flag accepts.
  static std::string usage();
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
  /// The load-balance cut over the attempt's ranks.  Its per-rank work is
  /// the Ehrhart prediction: the monitor's pace baseline, the report's
  /// load-balance audit and the profile's predicted cells.
  OwnerTable owners;
  ResultSink<S>* sink = nullptr;  ///< probes and maximum (not owned)
  TileOrder order;
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

/// Prints a generated program's STATS line, then the MONITOR, PROFILE and
/// MSGTRACE lines (and straggler warnings on stderr) for whichever of
/// those channels `options` enabled.
void print_summary(const LaunchOptions& options, const LaunchResult& result,
                   long long total_work);

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

/// Rejects a checkpoint that does not fit the problem before it seeds a
/// run: every executed tile, edge consumer and producer must be in the
/// tile space, every edge index in [0, num_edges()), and every payload as
/// long as pack() makes that edge of that producer.
template <typename S>
void check_resume(const CheckpointDoc& doc, const ProblemHooks<S>& hooks) {
  auto in_space = [&](const IntVec& t, const char* what) {
    DPGEN_CHECK(static_cast<int>(t.size()) == hooks.dim() &&
                    hooks.tile_exists(t.data()),
                cat("checkpoint: ", what, " ", vec_to_string(t),
                    " is not in the tile space"));
  };
  for (const IntVec& t : doc.executed) in_space(t, "executed tile");
  std::vector<S> buffer(static_cast<std::size_t>(hooks.buffer_size())), out;
  for (const CheckpointDoc::Edge& e : doc.edges) {
    DPGEN_CHECK(e.edge >= 0 && e.edge < hooks.num_edges(),
                cat("checkpoint: edge index ", e.edge, " outside [0, ",
                    hooks.num_edges(), ")"));
    in_space(e.consumer, "edge consumer");
    const Int* off = hooks.edge_offset(e.edge);
    const IntVec producer =
        vec_add(e.consumer, IntVec(off, off + hooks.dim()));
    in_space(producer, "edge producer");
    out.resize(static_cast<std::size_t>(hooks.edge_capacity(e.edge)));
    const auto bytes = static_cast<std::size_t>(
        hooks.pack(e.edge, producer.data(), buffer.data(), out.data())) *
        sizeof(S);
    DPGEN_CHECK(e.payload_bytes.size() == bytes,
                cat("checkpoint: edge ", e.edge, " into ",
                    vec_to_string(e.consumer), " carries ",
                    e.payload_bytes.size(), " bytes, not ", bytes));
  }
}

/// Runs a problem end to end; `plan(alive)` must return a LaunchPlan<S> for
/// a fleet of `alive` ranks (called once per attempt).
template <typename S, typename PlanFn>
LaunchResult launch(const PlanFn& plan, const LaunchOptions& options,
                    const LaunchLabels& labels) {
  CheckpointStore<S> store;
  CheckpointStore<S>* checkpoint = nullptr;
  LaunchPlan<S> p;  // the current attempt's
  return detail::launch(
      [&](int alive) {
        p = plan(alive);
        if (!checkpoint && (options.fault_tolerant || options.fault_plan)) {
          checkpoint = &store;
          store.set_meta(labels.problem, vec_to_string(labels.params),
                         p.hooks->dim());
          if (!options.resume_checkpoint_path.empty()) {
            const CheckpointDoc doc =
                load_checkpoint_json(options.resume_checkpoint_path);
            check_resume(doc, *p.hooks);
            store.restore_from(doc);
          }
          if (!options.checkpoint_json_path.empty())
            store.configure_flush(options.checkpoint_json_path,
                                  options.checkpoint_every_tiles);
        }
        detail::Attempt a{std::move(p.order), {}, {}, {}};
        for (int r = 0; r < p.owners.nranks(); ++r)
          a.predicted_work.push_back(
              static_cast<double>(p.owners.owned_work(r)));
        for (int e = 0; e < p.hooks->num_edges(); ++e) {
          const Int* off = p.hooks->edge_offset(e);
          a.edge_offsets.emplace_back(off, off + p.hooks->dim());
        }
        a.run = [&](minimpi::World& world, const RunOptions& ropt) {
          std::vector<RunStats> stats(static_cast<std::size_t>(world.size()));
          try {
            world.run([&](minimpi::Comm& comm) {
              stats[static_cast<std::size_t>(comm.rank())] =
                  run_node<S>(*p.hooks, p.owners, comm, ropt, checkpoint,
                              p.sink);
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
