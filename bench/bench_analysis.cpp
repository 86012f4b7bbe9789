// ANALYSIS — analyzer throughput on synthetic traces: how fast
// obs::analyze() turns a span set into a report (critical path + per-rank
// attribution + comm matrix).  The report runs once per traced execution,
// so the bar is "negligible next to the run it describes": millions of
// spans per second, not thousands.  The table sweeps trace sizes; the
// registered bench pins the per-span cost for regression tracking.

#include "bench_util.hpp"

#include <chrono>

#include "obs/analysis.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

/// A deterministic n x n wavefront trace over `ranks` ranks: each tile
/// executes on rank (i % ranks) along anti-diagonal d = i + j, preceded
/// by a pack and an idle stretch on the same track — the shape a real
/// grid-DP run produces, without the run.
obs::AnalysisInput synthetic_trace(Int n, int ranks) {
  obs::AnalysisInput in;
  in.source = "trace";
  in.problem = "synthetic";
  in.nranks = ranks;
  in.edge_offsets = {{-1, 0}, {0, -1}};
  in.predicted_work.assign(static_cast<std::size_t>(ranks), 1.0);
  const std::int64_t kExec = 800, kPack = 100, kSlot = 1000;
  in.spans.reserve(static_cast<std::size_t>(3 * n * n));
  for (Int i = 0; i < n; ++i) {
    for (Int j = 0; j < n; ++j) {
      const int rank = static_cast<int>(i % ranks);
      const std::int64_t start = (i + j) * kSlot;
      obs::Span s;
      s.rank = static_cast<std::int16_t>(rank);
      s.thread = 0;
      s.ncoord = 2;
      s.coord[0] = static_cast<std::int32_t>(i);
      s.coord[1] = static_cast<std::int32_t>(j);
      s.phase = obs::Phase::kTileExecute;
      s.start_ns = start;
      s.end_ns = start + kExec;
      in.spans.push_back(s);
      obs::Span pack;
      pack.rank = s.rank;
      pack.thread = 0;
      pack.phase = obs::Phase::kPack;
      pack.start_ns = start + kExec;
      pack.end_ns = start + kExec + kPack;
      in.spans.push_back(pack);
      obs::Span idle;
      idle.rank = s.rank;
      idle.thread = 0;
      idle.phase = obs::Phase::kIdle;
      idle.start_ns = start + kExec + kPack;
      idle.end_ns = start + kSlot;
      in.spans.push_back(idle);
    }
  }
  in.bytes_matrix.assign(static_cast<std::size_t>(ranks),
                         std::vector<std::uint64_t>(
                             static_cast<std::size_t>(ranks), 64));
  in.messages_matrix = in.bytes_matrix;
  return in;
}

void analysis_table() {
  header("ANALYSIS", "obs::analyze() throughput on synthetic traces");
  std::printf("%-14s %-10s %-10s %-12s %-14s %-10s\n", "config", "spans",
              "path_len", "seconds", "spans_per_s", "coverage");
  struct Config {
    const char* name;
    Int n;
    int ranks;
  };
  const Config configs[] = {
      {"grid32/r2", 32, 2},
      {"grid64/r4", 64, 4},
      {"grid128/r8", 128, 8},
  };
  for (const auto& cfg : configs) {
    obs::AnalysisInput in = synthetic_trace(cfg.n, cfg.ranks);
    (void)obs::analyze(in);  // warm-up
    double best = 0.0;
    obs::AnalysisReport report;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      report = obs::analyze(in);
      const double sec = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      if (best == 0.0 || sec < best) best = sec;
    }
    const double sps =
        best > 0 ? static_cast<double>(in.spans.size()) / best : 0.0;
    std::printf("%-14s %-10zu %-10zu %-12.5f %-14.0f %-10.4f\n", cfg.name,
                in.spans.size(), report.critical_path.size(), best, sps,
                report.path_coverage);
  }
  std::printf("\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("analysis/grid64_r4", [] {
    obs::AnalysisInput in = synthetic_trace(64, 4);
    const auto t0 = std::chrono::steady_clock::now();
    obs::AnalysisReport report = obs::analyze(in);
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    s.metrics = {
        {"spans", static_cast<double>(in.spans.size())},
        {"spans_per_s",
         s.seconds > 0 ? static_cast<double>(in.spans.size()) / s.seconds
                       : 0.0},
        {"path_len", static_cast<double>(report.critical_path.size())}};
    return s;
  });
  register_table("ANALYSIS", analysis_table);
  return true;
}();

}  // namespace
