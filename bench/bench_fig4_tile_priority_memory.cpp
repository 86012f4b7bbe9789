// FIG4 — paper Figure 4 / section V.B: peak buffered tile edges under the
// column-major priority versus the level-set priority.
//
// Claims reproduced:
//   * column-major order on an n x n tile grid buffers ~n+1 edges,
//   * level-set order buffers ~2(n-1) edges,
//   * in d dimensions the level-set order costs up to ~d times the memory,
//   * storing only pending tiles keeps live tiles O(n^(d-1)) of Theta(n^d).

#include "bench_util.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

void fig4_table() {
  header("FIG4",
         "peak buffered edges: column-major vs level-set priority, 1 core");
  std::printf("%-8s %-8s %-12s %-12s %-10s %-10s\n", "space", "n", "column",
              "levelset", "paper_col", "paper_lvl");
  for (Int n : {5, 8, 16, 32}) {
    tiling::TilingModel model(grid_spec(4));
    IntVec params{4 * n - 1};
    sim::ClusterConfig cfg;
    cfg.policy = runtime::PriorityPolicy::kColumnMajor;
    auto col = sim::simulate(model, params, cfg);
    cfg.policy = runtime::PriorityPolicy::kLevelSet;
    auto lvl = sim::simulate(model, params, cfg);
    std::printf("%-8s %-8lld %-12lld %-12lld %-10lld %-10lld\n", "grid2d",
                static_cast<long long>(n), col.peak_buffered_edges,
                lvl.peak_buffered_edges, static_cast<long long>(n + 1),
                static_cast<long long>(2 * (n - 1)));
  }
  // Higher-dimensional spaces: the level-set / column-major memory ratio
  // approaches ~d (section V.B).
  std::printf("\n%-8s %-8s %-12s %-12s %-8s\n", "space", "N", "column",
              "levelset", "ratio");
  for (int d : {2, 3, 4}) {
    tiling::TilingModel model(simplex_spec(d, 3, d));
    IntVec params{3 * 10 - 1};
    sim::ClusterConfig cfg;
    cfg.policy = runtime::PriorityPolicy::kColumnMajor;
    auto col = sim::simulate(model, params, cfg);
    cfg.policy = runtime::PriorityPolicy::kLevelSet;
    auto lvl = sim::simulate(model, params, cfg);
    std::printf("%-8s %-8lld %-12lld %-12lld %-8.2f\n",
                ("simp" + std::to_string(d)).c_str(),
                static_cast<long long>(params[0]), col.peak_buffered_edges,
                lvl.peak_buffered_edges,
                static_cast<double>(lvl.peak_buffered_edges) /
                    static_cast<double>(col.peak_buffered_edges));
  }
  std::printf("\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("fig4/sim_grid_n16_column", [] {
    tiling::TilingModel model(grid_spec(4));
    IntVec params{4 * 16 - 1};
    sim::ClusterConfig cfg;
    cfg.policy = runtime::PriorityPolicy::kColumnMajor;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = sim::simulate(model, params, cfg);
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    s.metrics = {{"peak_buffered_edges",
                  static_cast<double>(r.peak_buffered_edges)},
                 {"tiles", static_cast<double>(r.tiles)}};
    return s;
  });
  register_table("FIG4", fig4_table);
  return true;
}();

}  // namespace
