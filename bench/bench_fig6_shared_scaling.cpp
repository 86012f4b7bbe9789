// FIG6 / SPD1 — paper Figure 6 and section VIII: shared-memory scaling on
// one node, 1..24 cores, for the problem suite.  The paper reports speedup
// >= 22 on 24 cores for most problems (2-arm bandit 22.35).
//
// The scaling curves come from the discrete-event simulator replaying the
// real tile schedule (see DESIGN.md): the shape — near-linear until the
// wavefront width binds — is the reproduction target.

#include "bench_util.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

struct Workload {
  const char* name;
  spec::ProblemSpec spec;
  Int n;
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    spec::ProblemSpec s = problems::bandit2(8).spec;
    w.push_back({"bandit2", s, 255});
  }
  {
    spec::ProblemSpec s = problems::bandit3(6).spec;
    w.push_back({"bandit3", s, 60});
  }
  {
    // 3-sequence alignment shape (cube with the 7 subset deps).
    auto seqs = std::vector<std::string>{problems::random_dna(96, 1),
                                         problems::random_dna(96, 2),
                                         problems::random_dna(96, 3)};
    w.push_back({"msa3", problems::msa(seqs, 8).spec, 96});
  }
  {
    spec::ProblemSpec s = grid_spec(8);
    w.push_back({"lcs2-grid", s, 511});
  }
  return w;
}
void fig6_table() {
  header("FIG6", "shared-memory scaling: speedup vs cores on one node");
  std::printf("%-10s %-7s %-10s %-10s %-12s\n", "problem", "cores",
              "speedup", "eff", "makespan_s");
  for (auto& wl : workloads()) {
    tiling::TilingModel model(wl.spec);
    IntVec params;
    for (int i = 0; i < model.nparams(); ++i) params.push_back(wl.n);
    for (int cores : {1, 2, 4, 8, 12, 16, 20, 24}) {
      sim::ClusterConfig cfg;
      cfg.cores_per_node = cores;
      auto r = sim::simulate(model, params, cfg);
      std::printf("%-10s %-7d %-10.2f %-10.3f %-12.4f\n", wl.name, cores,
                  r.speedup(), r.efficiency(cores), r.makespan);
    }
  }
  std::printf(
      "# SPD1  paper: speedup >= 22 on 24 cores for most problems; "
      "2-arm bandit 22.35\n\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("fig6/sim_bandit2_c24", [] {
    tiling::TilingModel model(problems::bandit2(8).spec);
    sim::ClusterConfig cfg;
    cfg.cores_per_node = 24;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = sim::simulate(model, {255}, cfg);
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    s.metrics = {{"speedup", r.speedup()},
                 {"tiles", static_cast<double>(r.tiles)},
                 {"utilization", r.utilization}};
    return s;
  });
  register_table("FIG6", fig6_table);
  return true;
}();

}  // namespace
