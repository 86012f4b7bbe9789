// PEND — paper section V.B: storing only pending tiles (and only packed
// edges) keeps live memory O(n^(d-1)) while the whole iteration space is
// Theta(n^d): "an order of magnitude" reduction that lets much larger
// problems be solved.

#include "bench_util.hpp"

#include "engine/engine.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

void pend_table() {
  header("PEND", "peak live memory vs full-array storage (engine runs)");
  std::printf("%-10s %-8s %-14s %-16s %-16s %-10s\n", "problem", "N",
              "cells(n^d)", "peak_edge_mem", "peak_pending", "reduction");
  problems::Problem p = problems::bandit2(4);
  for (Int n : {16, 24, 32, 48}) {
    tiling::TilingModel model(p.spec);
    IntVec params{n};
    engine::EngineOptions opt;
    opt.probes = {p.objective};
    auto result = engine::run(model, params, p.kernel, opt);
    long long peak_scalars = 0, peak_pending = 0;
    for (const auto& s : result.rank_stats) {
      peak_scalars += s.table.peak_buffered_scalars;
      peak_pending += s.table.peak_pending_tiles;
    }
    // Full-array storage would keep one scalar per location plus nothing
    // else; tile buffers in flight add threads * buffer_size.
    long long cells = model.total_cells(params);
    long long live = peak_scalars + model.buffer_size();
    std::printf("%-10s %-8lld %-14lld %-16lld %-16lld %-10.1fx\n", "bandit2",
                static_cast<long long>(n), cells, live, peak_pending,
                static_cast<double>(cells) / static_cast<double>(live));
  }
  std::printf("# paper: pending-only storage reduces memory by an order of "
              "magnitude (O(n^(d-1)) live tiles of Theta(n^d) locations)\n\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("pending_memory/engine_bandit2_n32", [] {
    problems::Problem p = problems::bandit2(4);
    tiling::TilingModel model(p.spec);
    IntVec params{32};
    engine::EngineOptions opt;
    opt.probes = {p.objective};
    const auto t0 = std::chrono::steady_clock::now();
    auto result = engine::run(model, params, p.kernel, opt);
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    long long peak_scalars = 0, peak_pending = 0;
    for (const auto& rs : result.rank_stats) {
      peak_scalars += rs.table.peak_buffered_scalars;
      peak_pending += rs.table.peak_pending_tiles;
    }
    s.metrics = {{"cells", static_cast<double>(model.total_cells(params))},
                 {"peak_buffered_scalars",
                  static_cast<double>(peak_scalars)},
                 {"peak_pending_tiles", static_cast<double>(peak_pending)}};
    return s;
  });
  register_table("PEND", pend_table);
  return true;
}();

}  // namespace
