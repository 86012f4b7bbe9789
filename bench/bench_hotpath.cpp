// HOTPATH — edge-dominated scheduling overhead: tiles and edges per second
// on small-tile configurations where tile execution is trivial and the
// driver loop (pack -> route -> deliver -> unpack) dominates.  This is the
// regression harness for the allocation-free hot path: the table prints
// edge throughput plus the buffer-pool counters (runtime.edge_alloc /
// runtime.pool_hit), and the registered hotpath/ benches track the same
// workloads across commits through dpgen-bench.
//
// Configurations:
//   * grid/w=2 and grid/w=4 — a 2D unit-dep grid cut into tiny tiles; each
//     tile is 4 (resp. 16) cells but produces/consumes 2 edges, so the run
//     is scheduling-bound.
//   * ranks=2 rows route half the edges through minimpi (remote path).
//   * table/ rows drive ShardedTileTable::deliver/pop directly, isolating
//     the pending-map + ready-queue cost from pack/execute.

#include "bench_util.hpp"

#include <chrono>

#include "engine/engine.hpp"
#include "runtime/tile_table.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

struct HotpathRow {
  double seconds = 0.0;
  long long tiles = 0;
  long long edges = 0;
  long long edge_allocs = 0;
  long long pool_hits = 0;
  unsigned long long bytes_sent = 0;
};

HotpathRow run_once(const tiling::TilingModel& model, Int n, int ranks,
                    bool monitored = false, bool profiled = false,
                    bool msgtraced = false) {
  engine::EngineOptions opt;
  opt.ranks = ranks;
  opt.threads = 1;
  if (monitored) opt.monitor_path = "-";  // live telemetry, no event log
  if (profiled) opt.profile_path = "-";   // sampling profiler, no document
  if (msgtraced) opt.msgtrace_json_path = "-";  // collect records, no doc
  auto r = engine::run(model, {n}, [](const engine::Cell& c) {
    c.V[c.loc] = 1.0;
    for (int j = 0; j < 2; ++j)
      if (c.valid[j]) c.V[c.loc] += c.V[c.loc_dep[j]];
  }, opt);
  HotpathRow row;
  for (const auto& s : r.rank_stats) {
    row.tiles += s.tiles_executed;
    row.edges += s.local_edges + s.remote_edges;
    row.seconds = std::max(row.seconds, s.total_seconds);
    row.edge_allocs += s.edge_allocs;
    row.pool_hits += s.pool_hits;
    row.bytes_sent += s.bytes_sent;
  }
  return row;
}

/// Pending-map + ready-queue cost in isolation: every tile of an n x n
/// grid receives two edges (with small payloads) and is popped once its
/// dependencies are satisfied, mimicking the driver's delivery pattern.
/// Returns the seconds taken, or -1 on a wrong pop count.
double table_deliver_pop_once(Int n) {
  runtime::TileOrder order({0, 1}, {1, 1},
                           runtime::PriorityPolicy::kColumnMajor);
  auto deps = [&](const IntVec& t) {
    return (t[0] > 0 ? 1 : 0) + (t[1] > 0 ? 1 : 0);
  };
  std::vector<double> payload(4, 1.0);
  const auto t0 = std::chrono::steady_clock::now();
  runtime::ShardedTileTable<double> table(order, 1);
  table.seed_ready({0, 0});
  long long popped = 0;
  while (auto ready = table.pop(0)) {
    ++popped;
    const IntVec& t = ready->tile;
    for (int k = 0; k < 2; ++k) {
      IntVec c = t;
      c[static_cast<std::size_t>(k)] += 1;
      if (c[0] >= n || c[1] >= n) continue;
      table.deliver(c, deps, runtime::EdgeData<double>{k, payload});
    }
  }
  if (popped != n * n) return -1.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// dpgen-bench entries: the same workloads as the table, at sizes small
/// enough for repeated gated trials.
obs::BenchSample hotpath_sample(Int width, Int n, int ranks,
                                bool monitored = false, bool profiled = false,
                                bool msgtraced = false) {
  tiling::TilingModel model(grid_spec(width));
  HotpathRow row = run_once(model, n, ranks, monitored, profiled, msgtraced);
  const double bytes_on_wire = static_cast<double>(row.bytes_sent);
  obs::BenchSample s;
  s.seconds = row.seconds;
  const double eps = row.seconds > 0 ? row.edges / row.seconds : 0.0;
  const double pool_total =
      static_cast<double>(row.pool_hits + row.edge_allocs);
  s.metrics = {{"tiles", static_cast<double>(row.tiles)},
               {"edges", static_cast<double>(row.edges)},
               {"edges_per_s", eps},
               {"pool_hit_pct", pool_total > 0
                                    ? 100.0 * row.pool_hits / pool_total
                                    : 0.0},
               {"bytes_on_wire", bytes_on_wire}};
  return s;
}

void hotpath_table() {
  header("HOTPATH", "edge-dominated driver throughput (small tiles)");
  std::printf("%-14s %-9s %-10s %-12s %-14s %-12s %-10s\n", "config",
              "tiles", "edges", "seconds", "edges_per_s", "edge_allocs",
              "pool_hit%");
  struct Config {
    const char* name;
    Int width;
    Int n;
    int ranks;
  };
  // N chosen so each config runs ~10^4..10^5 tiles: big enough for a
  // stable steady state, small enough for the check.sh smoke flavour.
  const Config configs[] = {
      {"grid/w2", 2, 511, 1},
      {"grid/w4", 4, 511, 1},
      {"grid/w2/r2", 2, 511, 2},
      {"grid/w4/r2", 4, 511, 2},
  };
  for (const auto& cfg : configs) {
    tiling::TilingModel model(grid_spec(cfg.width));
    // One warm-up, then best-of-3 (the container is a single shared core).
    (void)run_once(model, cfg.n, cfg.ranks);
    HotpathRow best;
    for (int rep = 0; rep < 3; ++rep) {
      HotpathRow row = run_once(model, cfg.n, cfg.ranks);
      if (best.seconds == 0.0 || row.seconds < best.seconds) best = row;
    }
    const double eps = best.seconds > 0 ? best.edges / best.seconds : 0.0;
    const double pool_total =
        static_cast<double>(best.pool_hits + best.edge_allocs);
    const double hit_pct =
        pool_total > 0 ? 100.0 * best.pool_hits / pool_total : 0.0;
    std::printf("%-14s %-9lld %-10lld %-12.4f %-14.0f %-12lld %-10.2f\n",
                cfg.name, best.tiles, best.edges, best.seconds, eps,
                best.edge_allocs, hit_pct);
  }
  std::printf("\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("hotpath/grid_w2",
                 [] { return hotpath_sample(2, 255, 1); });
  register_bench("hotpath/grid_w2_r2",
                 [] { return hotpath_sample(2, 255, 2); });
  // Same workload with the live monitor attached: guards the "monitoring
  // costs < 3% edge throughput" budget — the steady-state cost is one
  // relaxed load per tile.
  register_bench("hotpath/grid_w2_mon",
                 [] { return hotpath_sample(2, 255, 1, true); });
  // Same workload with the sampling profiler + per-tile counter windows
  // attached: guards the "continuous profiling costs < 3% edge
  // throughput" budget — the steady-state cost is two frame-stack stores
  // per span plus an adaptive-stride counter read (most tiles skip it).
  register_bench("hotpath/grid_w2_prof",
                 [] { return hotpath_sample(2, 255, 1, false, true); });
  // The 2-rank workload with message tracing on: guards the "msgtrace
  // costs < 3% edge throughput" budget.  Compare against
  // grid_w2_r2 — grid_w2 is single-rank and sends no messages, so it
  // would measure nothing.  The steady-state cost is six steady-clock
  // stamps plus one ring store per remote edge.
  register_bench("hotpath/grid_w2_msgtrace",
                 [] { return hotpath_sample(2, 255, 2, false, false, true); });
  register_bench("hotpath/table_deliver_pop", [] {
    obs::BenchSample s;
    const Int n = 64;
    s.seconds = table_deliver_pop_once(n);
    s.metrics = {{"edges", static_cast<double>(2 * n * n)}};
    return s;
  });
  register_table("HOTPATH", hotpath_table);
  return true;
}();

}  // namespace
