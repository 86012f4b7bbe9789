// LB / LBALT — paper Figure 2 + section IV.J (per-dimension balancing with
// Ehrhart work counts) and Figure 8 + section VII.B (hyperplane cuts).
//
// Claims reproduced:
//   * balancing on fewer than all dimensions achieves good work balance,
//     but too few dimensions balances badly (one dim on Fig. 2's shape is
//     "much worse"),
//   * the per-dimension method creates long critical paths; hyperplane
//     cuts on wedge-shaped spaces reduce idle time when scaling across
//     nodes (2-arm bandit).

#include "bench_util.hpp"

#include "tiling/balance.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

void lb_table() {
  header("LB", "work imbalance (max/avg) vs number of balanced dimensions");
  std::printf("%-8s %-7s %-8s %-12s %-12s\n", "space", "nodes", "lbdims",
              "imbalance", "cells");
  for (int d : {3, 4}) {
    for (int lbdims = 1; lbdims <= std::min(3, d); ++lbdims) {
      tiling::TilingModel model(simplex_spec(d, 4, lbdims));
      IntVec params{47};
      for (int nodes : {3, 8}) {
        tiling::LoadBalancer lb(model, params, nodes);
        std::printf("%-8s %-7d %-8d %-12.4f %-12lld\n",
                    ("simp" + std::to_string(d)).c_str(), nodes, lbdims,
                    lb.imbalance(), static_cast<long long>(lb.num_cells()));
      }
    }
  }
  std::printf("# paper: selecting fewer than all dims balances well, but "
              "too few (e.g. 1) is much worse\n\n");
}

void lbalt_table() {
  header("LBALT",
         "per-dimension vs hyperplane cuts on the 2-arm bandit: idle time");
  std::printf("%-7s %-14s %-14s %-12s %-12s\n", "nodes", "perdim_util",
              "hyper_util", "perdim_mk", "hyper_mk");
  tiling::TilingModel model(problems::bandit2(8).spec);
  IntVec params{127};
  for (int nodes : {2, 4, 8}) {
    sim::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.cores_per_node = 8;
    cfg.balance = tiling::BalanceMethod::kPerDimension;
    auto a = sim::simulate(model, params, cfg);
    cfg.balance = tiling::BalanceMethod::kHyperplane;
    auto b = sim::simulate(model, params, cfg);
    std::printf("%-7d %-14.3f %-14.3f %-12.4f %-12.4f\n", nodes,
                a.utilization, b.utilization, a.makespan, b.makespan);
  }
  std::printf("# paper: hyperplane balancing reduced idle times on the "
              "2-arm bandit when scaling across nodes (future work, Fig. 8)\n\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("loadbalance/balancer_bandit2_n127_r8", [] {
    tiling::TilingModel model(problems::bandit2(8).spec);
    IntVec params{127};
    const auto t0 = std::chrono::steady_clock::now();
    tiling::LoadBalancer lb(model, params, 8);
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    s.metrics = {{"imbalance", lb.imbalance()},
                 {"cells", static_cast<double>(lb.num_cells())}};
    return s;
  });
  register_bench("loadbalance/sim_hyperplane_nodes4", [] {
    tiling::TilingModel model(problems::bandit2(8).spec);
    sim::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.cores_per_node = 8;
    cfg.balance = tiling::BalanceMethod::kHyperplane;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = sim::simulate(model, {127}, cfg);
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    s.metrics = {{"utilization", r.utilization},
                 {"tiles", static_cast<double>(r.tiles)}};
    return s;
  });
  register_table("LB", lb_table);
  register_table("LBALT", lbalt_table);
  return true;
}();

}  // namespace
