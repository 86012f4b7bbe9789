#pragma once
// Discrete-event cluster simulator (see DESIGN.md, substitutions).
//
// The paper's evaluation (Figures 6 and 7, section VI) was run on an
// 8-node x 24-core cluster; this container has one core and no MPI.  The
// simulator replays the exact schedule a generated program would follow —
// the same tile DAG (from the TilingModel), the same ownership (from the
// LoadBalancer), the same eligible-tile priority (runtime::TileOrder), the
// same pack/send/unpack sequencing — under a configurable machine model
// (nodes x cores, per-location compute cost, per-message latency,
// bandwidth).  Makespan, utilization, idle time and peak buffered edges
// come out deterministically, which is what the scaling *shapes* of the
// paper's figures are made of.
//
// The simulator is also the measurement device for the paper's memory
// claims (Fig. 4): it tracks the peak number of buffered tile edges under
// the column-major and level-set priorities.

#include "obs/analysis.hpp"
#include "obs/monitor.hpp"
#include "runtime/order.hpp"
#include "tiling/balance.hpp"
#include "tiling/model.hpp"

namespace dpgen::sim {

/// Machine and policy model for one simulated run.
struct ClusterConfig {
  int nodes = 1;
  int cores_per_node = 1;
  /// Seconds of compute per location (cell).
  double sec_per_cell = 1e-6;
  /// Fixed per-tile cost: buffer allocation, unpacking, queue handling.
  double tile_overhead_sec = 2e-6;
  /// Per-message latency for edges crossing nodes.
  double link_latency_sec = 20e-6;
  /// Scalars per second across the inter-node link.
  double link_bandwidth_scalars = 5e8;
  runtime::PriorityPolicy policy = runtime::PriorityPolicy::kColumnMajor;
  tiling::BalanceMethod balance = tiling::BalanceMethod::kPerDimension;
  /// Record one TileSpan per executed tile (timeline analysis).
  bool record_timeline = false;
  /// When non-empty, a timeline is recorded (record_timeline is implied)
  /// and the simulated schedule is pushed through the same performance
  /// analyzer as real runs (obs/analysis.hpp); the report JSON is written
  /// here.
  std::string report_json_path;
  /// When non-empty, the DES synthesizes one causal message record per
  /// remote edge (pack/send/admit at the producer's completion, deliver
  /// after the modelled link latency, unpack/dispatch at the consumer's
  /// execute start) and writes the dpgen.msgtrace.v1 document here ("-" =
  /// collect into SimResult::msg_records only).  Implies record_timeline.
  /// Simulated delivery is lossless, so conservation always accounts.
  std::string msgtrace_path;
  /// Per-node compute slowdown factors (empty = all 1.0): tile cost on
  /// node n is multiplied by node_slowdown[n].  The deterministic
  /// straggler-injection knob for testing the online detector.
  std::vector<double> node_slowdown;
  /// When non-empty, live monitoring runs against DES time: synthetic
  /// per-node heartbeats and the online straggler detector
  /// (obs::Monitor), with events appended here as dpgen.events.v1 JSONL.
  /// "-" monitors without writing a log (SimResult::stragglers only).
  std::string events_path;
  /// Monitor sampling period in *simulated* seconds (0 = auto: the
  /// predicted makespan split into ~32 samples).
  double monitor_interval_s = 0.0;
  /// When non-empty, a *synthetic* dpgen.profile.v1 document is derived
  /// from the simulated timeline and written here (requires
  /// record_timeline; implied when set): sample counts are DES busy/idle
  /// time x profile_hz per node, the counter channel reports simulated
  /// nanoseconds (`counters: "sim"`, `sampler: "synthetic"`).  Lets
  /// profile consumers (cost table, flame view) be exercised
  /// deterministically without wall-clock sampling.
  std::string profile_path;
  double profile_hz = 997.0;
  /// Family name stamped into the synthetic profile document.
  std::string problem_name;
};

/// One executed tile in the recorded timeline.
struct TileSpan {
  int node = 0;
  int core = 0;
  double start = 0.0;
  double end = 0.0;
  IntVec tile;
};

struct SimResult {
  double makespan = 0.0;
  /// Sum over tiles of compute time (the serial compute bound).
  double total_work_sec = 0.0;
  /// Per-node busy seconds.
  std::vector<double> node_busy;
  /// busy / (makespan * nodes * cores): 1.0 is perfect.
  double utilization = 0.0;
  long long tiles = 0;
  long long remote_messages = 0;
  double remote_scalars = 0.0;
  /// Peak number of simultaneously buffered edges, summed over nodes
  /// (Fig. 4 metric).
  long long peak_buffered_edges = 0;
  /// Per-tile execution spans (only when ClusterConfig::record_timeline).
  std::vector<TileSpan> timeline;
  /// Synthesized per-message lifecycle records (only when
  /// ClusterConfig::msgtrace_path is set); they feed the report's
  /// msgtrace section through analysis_input.
  std::vector<obs::MsgRecord> msg_records;
  /// node x node simulated traffic, [source][destination].  Bytes assume
  /// 8-byte wire scalars (edge capacity x sizeof(double)), matching the
  /// link-bandwidth model's scalar accounting.
  std::vector<std::vector<std::uint64_t>> bytes_matrix;
  std::vector<std::vector<std::uint64_t>> messages_matrix;
  /// Nodes the online detector flagged (only when ClusterConfig::
  /// events_path is set; empty on a balanced run).
  std::vector<obs::StragglerFlag> stragglers;

  /// Speedup of this run relative to a serial execution of the same work.
  double speedup() const {
    return makespan > 0 ? total_work_sec / makespan : 0.0;
  }
  /// Efficiency against the given core count.
  double efficiency(int total_cores) const {
    return speedup() / static_cast<double>(total_cores);
  }
};

/// Simulates one run.  Deterministic: same inputs, same result.
SimResult simulate(const tiling::TilingModel& model, const IntVec& params,
                   const ClusterConfig& config);

/// Packages a simulated run (requires a recorded timeline) as analyzer
/// input: the timeline becomes tile-execute spans (simulated seconds ->
/// trace nanoseconds, node -> rank, core -> thread), the LoadBalancer is
/// re-derived for the Ehrhart baseline, and the simulated traffic matrices
/// ride along.  So a predicted schedule and a measured one produce reports
/// in the same format, side by side.
obs::AnalysisInput analysis_input(const SimResult& result,
                                  const tiling::TilingModel& model,
                                  const IntVec& params,
                                  const ClusterConfig& config);

/// Fraction of total core capacity busy in each of `buckets` equal time
/// slices of the run (requires a recorded timeline).  The shape makes
/// pipeline fill/drain phases visible at a glance.
std::vector<double> utilization_profile(const SimResult& result,
                                        int total_cores, int buckets);

}  // namespace dpgen::sim
