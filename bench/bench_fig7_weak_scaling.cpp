// FIG7 — paper Figure 7 / section VI: weak scaling across MPI nodes.
// Problem sizes grow with the node count so locations per node stay about
// constant; the time is normalised by the actual location count before
// computing efficiency (exactly the paper's methodology).  The paper
// reports ~90% efficiency for the 2-arm bandit at 8 nodes (24 cores each)
// and "fairly good" scaling for most problems.

#include "bench_util.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

struct Workload {
  const char* name;
  spec::ProblemSpec spec;
  Int base_cells;  // target locations for 1 node
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"bandit2", problems::bandit2(8).spec, 8'000'000});
  w.push_back({"bandit3", problems::bandit3(6).spec, 8'000'000});
  w.push_back({"grid2d", grid_spec(8), 4'000'000});
  return w;
}
void fig7_table() {
  header("FIG7",
         "weak scaling across nodes (24 cores each), time normalised by "
         "locations");
  std::printf("%-10s %-7s %-10s %-14s %-12s %-10s\n", "problem", "nodes",
              "N", "cells", "ns_per_cell", "eff");
  for (auto& wl : workloads()) {
    tiling::TilingModel model(wl.spec);
    double base_norm = 0.0;
    for (int nodes : {1, 2, 4, 8}) {
      IntVec probe_params{0};
      Int n = size_for_cells(model, wl.base_cells * nodes);
      IntVec params{n};
      Int cells = model.total_cells(params);
      sim::ClusterConfig cfg;
      cfg.nodes = nodes;
      cfg.cores_per_node = 24;
      auto r = sim::simulate(model, params, cfg);
      // Per-node-normalised time per location: with perfect weak scaling
      // every node processes its (equal) share in the same time, so
      // nodes * makespan / cells stays constant.
      double norm = static_cast<double>(nodes) * r.makespan /
                    static_cast<double>(cells);
      if (nodes == 1) base_norm = norm;
      double eff = base_norm / norm;
      std::printf("%-10s %-7d %-10lld %-14lld %-12.4f %-10.3f\n", wl.name,
                  nodes, static_cast<long long>(n),
                  static_cast<long long>(cells), norm * 1e9, eff);
      (void)probe_params;
    }
  }
  std::printf(
      "# paper: 2-arm bandit ~90%% at 8 nodes vs 1 node; combined "
      "~84%% on 192 cores (with ~93%% single-node OpenMP efficiency)\n\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("fig7/sim_bandit2_nodes4", [] {
    tiling::TilingModel model(problems::bandit2(8).spec);
    Int n = size_for_cells(model, 1'000'000);
    sim::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.cores_per_node = 24;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = sim::simulate(model, {n}, cfg);
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    s.metrics = {{"cells", static_cast<double>(model.total_cells({n}))},
                 {"tiles", static_cast<double>(r.tiles)},
                 {"remote_messages",
                  static_cast<double>(r.remote_messages)}};
    return s;
  });
  register_table("FIG7", fig7_table);
  return true;
}();

}  // namespace
