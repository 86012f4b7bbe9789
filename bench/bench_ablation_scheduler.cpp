// ABL — ablations of the runtime design choices on real (engine) runs:
//   * priority policy (paper Fig. 4/5): column-major vs level-set edge
//     memory on the actual scheduler, not the simulator;
//   * ready-queue sharding (paper VII.C): contention relief knob;
//   * bounded send/receive buffers (paper V: "the number of send and
//     receive buffers ... adjustable"): how small budgets trade blocked
//     sends for memory.

#include "bench_util.hpp"

#include "engine/engine.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

/// One engine run for the registered ablation points; returns the rank-0
/// wall seconds plus scheduler counters.
obs::BenchSample ablation_sample(const engine::EngineOptions& base) {
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  engine::EngineOptions opt = base;
  opt.probes = {p.objective};
  auto result = engine::run(model, {28}, p.kernel, opt);
  obs::BenchSample s;
  long long blocked = 0;
  for (const auto& rs : result.rank_stats) {
    s.seconds = std::max(s.seconds, rs.total_seconds);
    blocked += static_cast<long long>(rs.blocked_sends);
  }
  s.metrics = {
      {"tiles",
       static_cast<double>(result.total(&runtime::RunStats::tiles_executed))},
      {"blocked_sends", static_cast<double>(blocked)}};
  return s;
}

void policy_table() {
  header("ABL-POLICY",
         "engine runs: peak buffered edges under each priority policy");
  std::printf("%-10s %-8s %-12s %-14s %-12s\n", "problem", "N", "policy",
              "peak_edges", "seconds");
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  for (auto policy : {runtime::PriorityPolicy::kColumnMajor,
                      runtime::PriorityPolicy::kLevelSet}) {
    engine::EngineOptions opt;
    opt.policy = policy;
    opt.probes = {p.objective};
    auto result = engine::run(model, {32}, p.kernel, opt);
    const auto& s = result.rank_stats[0];
    std::printf("%-10s %-8d %-12s %-14lld %-12.4f\n", "bandit2", 32,
                policy == runtime::PriorityPolicy::kColumnMajor ? "column"
                                                                : "levelset",
                s.table.peak_buffered_edges, s.total_seconds);
  }
  std::printf("\n");
}

void shard_table() {
  header("ABL-SHARDS", "ready-queue shards vs wall time (4 worker threads)");
  std::printf("%-10s %-8s %-10s %-12s\n", "problem", "shards", "seconds",
              "tiles");
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  for (int shards : {1, 2, 4}) {
    engine::EngineOptions opt;
    opt.threads = 4;
    opt.queue_shards = shards;
    opt.probes = {p.objective};
    auto result = engine::run(model, {28}, p.kernel, opt);
    std::printf("%-10s %-8d %-10.4f %-12lld\n", "bandit2", shards,
                result.rank_stats[0].total_seconds,
                result.total(&runtime::RunStats::tiles_executed));
  }
  std::printf("# (single-CPU container: this validates correctness and "
              "overhead, not contention relief)\n\n");
}

void capacity_table() {
  header("ABL-BUFFERS",
         "bounded message buffers: blocked sends vs mailbox capacity");
  std::printf("%-10s %-10s %-14s %-14s\n", "problem", "capacity",
              "blocked_sends", "remote_edges");
  problems::Problem p = problems::bandit2(3);
  tiling::TilingModel model(p.spec);
  for (std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    engine::EngineOptions opt;
    opt.ranks = 4;
    opt.threads = 2;
    opt.mailbox_capacity = cap;
    opt.probes = {p.objective};
    auto result = engine::run(model, {24}, p.kernel, opt);
    long long blocked = 0, remote = 0;
    for (const auto& s : result.rank_stats) {
      blocked += static_cast<long long>(s.blocked_sends);
      remote += s.remote_edges;
    }
    std::printf("%-10s %-10zu %-14lld %-14lld\n", "bandit2", cap, blocked,
                remote);
  }
  std::printf("\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("ablation/shards2_threads2", [] {
    engine::EngineOptions opt;
    opt.threads = 2;
    opt.queue_shards = 2;
    return ablation_sample(opt);
  });
  register_bench("ablation/mailbox_cap1_r2", [] {
    engine::EngineOptions opt;
    opt.ranks = 2;
    opt.mailbox_capacity = 1;
    return ablation_sample(opt);
  });
  register_table("ABL-POLICY", policy_table);
  register_table("ABL-SHARDS", shard_table);
  register_table("ABL-BUFFERS", capacity_table);
  return true;
}();

}  // namespace
