#pragma once
// Performance attribution: turns a recorded run into a report that says
// where the makespan went.
//
// Three analyses, each answering a question the raw telemetry (PR 1's
// spans and counters) leaves to eyeballing:
//   1. Critical path — reconstruct the executed tile DAG from the
//      tile_execute spans plus the tile-dependency offsets (tile t
//      depends on t + offset, the TilingModel's edge convention), walk
//      back from the last-finishing tile along latest-finishing
//      predecessors, and attribute every nanosecond of the makespan along
//      that chain to compute / pack / unpack / send / blocked-send /
//      poll / idle / other.  The attribution sums to the makespan by
//      construction.
//   2. Load-balance audit — the paper's Sec. IV.J premise is that
//      Ehrhart-polynomial work counts predict per-rank runtime; the
//      report puts the LoadBalancer's predicted per-rank share next to
//      the measured per-rank tile_execute time and the per-rank error.
//   3. Communication matrix — the per-peer minimpi counters rendered as
//      a rank x rank bytes/messages matrix with row/column totals.
//
// One analyzer serves every producer: engine runs
// (EngineOptions::report_json_path), generated programs (--report=FILE),
// the cluster simulator's replayed timelines (sim::analysis_input), and
// re-ingested trace files (tools/dpgen-analyze --trace).  The JSON shape
// is schema-stable ("dpgen.report.v1", tools/report_schema.json).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/msgtrace.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/vec.hpp"

namespace dpgen::obs {

/// Everything the analyzer consumes.  Producers fill what they have;
/// empty members degrade gracefully (no offsets -> single-tile path with
/// a warning, no matrices -> comm section omitted from the text view).
struct AnalysisInput {
  std::vector<Span> spans;
  /// Ranks in the run; 0 derives it from the spans.
  int nranks = 0;
  /// Tile-dependency offsets: tile t depends on tile t + offset (the
  /// TilingModel / kEdgeOffsets convention).
  std::vector<IntVec> edge_offsets;
  /// LoadBalancer-predicted (Ehrhart) work per rank, in locations.
  std::vector<double> predicted_work;
  /// Per-peer send totals, [source][destination].
  std::vector<std::vector<std::uint64_t>> bytes_matrix;
  std::vector<std::vector<std::uint64_t>> messages_matrix;
  /// Spans the run's rings dropped: nonzero means the timeline (and
  /// therefore every reading of it) is incomplete.
  std::uint64_t spans_dropped = 0;
  std::string source;   ///< "engine" | "generated" | "sim" | "trace"
  std::string problem;  ///< problem name, when known
  IntVec params;        ///< parameter values, when known
  /// Codegen optimization passes live during the run (generated programs:
  /// the generation-time pipeline minus anything --passes=none disabled).
  std::vector<std::string> passes;
  /// Per-message lifecycle records (causal message tracing); empty =
  /// untraced run, msgtrace analyses are skipped.
  std::vector<MsgRecord> msg_records;
  /// Message records the run's rings dropped.
  std::uint64_t msg_records_dropped = 0;
};

/// Seconds attributed to each phase bucket.  `other` is the uncovered
/// remainder (scheduler bookkeeping, setup scans, untraced stretches), so
/// total() equals the attributed window exactly.
struct PhaseBreakdown {
  double compute = 0.0;
  double unpack = 0.0;
  double pack = 0.0;
  double send = 0.0;
  double blocked_send = 0.0;
  double poll = 0.0;
  double idle = 0.0;
  double barrier = 0.0;
  double other = 0.0;

  double total() const {
    return compute + unpack + pack + send + blocked_send + poll + idle +
           barrier + other;
  }
  PhaseBreakdown& operator+=(const PhaseBreakdown& o);
};

/// One tile on the critical path, in execution order.
struct CriticalPathStep {
  IntVec tile;
  int rank = 0;
  int thread = 0;
  double start_s = 0.0;  ///< relative to the run start
  double end_s = 0.0;
  /// Wait between the predecessor's finish (or the run start) and this
  /// tile's execute start — the window the gap attribution explains.
  double gap_before_s = 0.0;
};

/// Predicted-vs-measured audit for one rank.
struct RankAudit {
  int rank = 0;
  long long tiles = 0;
  /// Sum of this rank's tile_execute durations (all threads).
  double measured_compute_s = 0.0;
  /// Last span end minus first span start on this rank.
  double wall_s = 0.0;
  /// Sum of the per-thread track windows (phases.total() equals this by
  /// construction — the per-rank conservation invariant).
  double thread_seconds = 0.0;
  /// Whole-rank phase totals, summed over the rank's worker threads.
  PhaseBreakdown phases;
  double predicted_work = 0.0;   ///< Ehrhart locations owned by this rank
  double predicted_share = 0.0;  ///< predicted_work / total predicted
  double measured_share = 0.0;   ///< measured_compute_s / total measured
  /// measured_share - predicted_share: positive means the rank did more
  /// of the work than the Ehrhart counts promised.
  double share_error = 0.0;
};

struct AnalysisReport {
  std::string source;
  std::string problem;
  IntVec params;
  int nranks = 0;
  /// Codegen passes live during the run (copied from the input).
  std::vector<std::string> passes;
  /// Run start (earliest in-rank span) to last tile finish, seconds.
  double makespan_s = 0.0;
  std::uint64_t spans_dropped = 0;
  std::vector<std::string> warnings;

  // ---- (1) critical path --------------------------------------------------
  std::vector<CriticalPathStep> critical_path;
  /// Attribution of the whole [run start, last tile finish] window along
  /// the path: compute is the path tiles' execute time (plus other tiles
  /// run on the same thread during waits); the rest explains the gaps.
  PhaseBreakdown path_attribution;
  /// path_attribution.total() / makespan_s — 1.0 unless clock anomalies
  /// forced a gap clamp.
  double path_coverage = 0.0;

  // ---- (2) load-balance audit ---------------------------------------------
  std::vector<RankAudit> ranks;
  double predicted_imbalance = 0.0;  ///< max/avg predicted work
  double measured_imbalance = 0.0;   ///< max/avg measured compute time

  // ---- (3) communication matrix -------------------------------------------
  std::vector<std::vector<std::uint64_t>> bytes_matrix;
  std::vector<std::vector<std::uint64_t>> messages_matrix;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_messages = 0;

  // ---- (4) measured message path (causal message tracing) -----------------
  // Same walk and the same gap-attribution mechanics as (1), but
  // predecessors are chosen by *measured* arrival: a remote dependency
  // becomes available at its record's deliver stamp, a local one at the
  // producer's execute end.  Cross-checking this path against the inferred
  // one is the tracing stack's end-to-end self-test.
  std::vector<CriticalPathStep> measured_path;
  PhaseBreakdown measured_attribution;
  double measured_coverage = 0.0;
  /// True when message records were supplied and the path was computed.
  bool measured_path_valid = false;
  /// Aggregate queueing-delay decomposition over all message records
  /// (integer ns; total() == summed end-to-end latency exactly).
  MsgQueueing queueing;
  std::uint64_t msg_records = 0;
  std::uint64_t msg_records_dropped = 0;
};

/// Runs all three analyses.  Pure function of the input; deterministic.
AnalysisReport analyze(const AnalysisInput& input);

/// Schema-stable JSON rendering ("dpgen.report.v1";
/// tools/report_schema.json is the contract).
std::string report_json(const AnalysisReport& report);

/// Human-readable rendering (the CLI's default output).
std::string report_text(const AnalysisReport& report);

/// Writes report_json to `path` (throws dpgen::Error on I/O failure).
void write_report_json(const std::string& path,
                       const AnalysisReport& report);

// ---- report diffing -------------------------------------------------------
//
// Two reports of the same problem taken before and after a change answer
// "what got slower, and where": the delta of the critical-path phase
// buckets localises a makespan change to compute vs communication vs
// waiting, and the comm totals say whether the message traffic moved.

/// Delta between two dpgen.report.v1 documents (new minus old
/// throughout).
struct ReportDelta {
  std::string old_source, new_source;
  std::string old_problem, new_problem;
  double old_makespan_s = 0.0, new_makespan_s = 0.0;
  long long old_path_tiles = 0, new_path_tiles = 0;
  /// Critical-path attribution of each report.
  PhaseBreakdown old_phases, new_phases;
  double old_total_bytes = 0.0, new_total_bytes = 0.0;
  double old_total_messages = 0.0, new_total_messages = 0.0;
  double old_measured_imbalance = 0.0, new_measured_imbalance = 0.0;
  /// Codegen pass lists, comma-joined ("" when absent/none) — a diff in
  /// which these differ compares two different emissions of the problem.
  std::string old_passes, new_passes;
  /// Attribution buckets outside the canonical nine (a newer report
  /// revision's extra phases vs an old archive).  Keyed by bucket name; a
  /// bucket present in only one report diffs against 0 on the other side
  /// instead of being silently dropped.
  std::map<std::string, double> old_extra_phases, new_extra_phases;
};

/// Extracts the comparable summary of two parsed dpgen.report.v1
/// documents (throws dpgen::Error when either is not a v1 report).
ReportDelta diff_reports(const json::Value& old_report,
                         const json::Value& new_report);

/// Human-readable old/new/delta table.
std::string diff_text(const ReportDelta& delta);

/// Machine-readable rendering ("dpgen.reportdiff.v1").
std::string diff_json(const ReportDelta& delta);

}  // namespace dpgen::obs
