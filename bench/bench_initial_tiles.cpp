// INIT — paper section IV.K: initial tile generation runs serially and
// costs < 0.5% of total run time even for the largest runs, because the
// face-system scan touches O(n^(d-1)) candidates instead of all Theta(n^d)
// locations (or all tiles).

#include "bench_util.hpp"

#include "engine/engine.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

void init_table() {
  header("INIT", "initial-tile scan cost vs total run");
  std::printf("%-10s %-8s %-10s %-12s %-12s %-10s\n", "problem", "N",
              "tiles", "candidates", "scan_s", "frac_total");
  struct Case {
    const char* name;
    problems::Problem prob;
    Int n;
  };
  std::vector<Case> cases;
  cases.push_back({"bandit2", problems::bandit2(4), 72});
  cases.push_back({"bandit3", problems::bandit3(3), 21});
  {
    auto seqs = std::vector<std::string>{problems::random_dna(160, 1),
                                         problems::random_dna(160, 2)};
    cases.push_back({"msa2", problems::msa(seqs, 8), 160});
  }
  for (auto& c : cases) {
    tiling::TilingModel model(c.prob.spec);
    IntVec params;
    for (int i = 0; i < model.nparams(); ++i) params.push_back(c.n);
    Int candidates =
        model.for_each_initial_tile(params, [](const IntVec&) {});
    engine::EngineOptions opt;
    opt.probes = {c.prob.objective};
    auto result = engine::run(model, params, c.prob.kernel, opt);
    const auto& s = result.rank_stats[0];
    std::printf("%-10s %-8lld %-10lld %-12lld %-12.6f %-10.4f%%\n", c.name,
                static_cast<long long>(c.n),
                static_cast<long long>(model.total_tiles(params)),
                static_cast<long long>(candidates), s.init_scan_seconds,
                100.0 * s.init_scan_seconds / s.total_seconds);
  }
  std::printf("# paper: initial tile generation is serial and < 0.5%% of "
              "total run time for even the largest runs\n\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("initial_tiles/scan_bandit2_n80", [] {
    tiling::TilingModel model(problems::bandit2(4).spec);
    IntVec params{80};
    const auto t0 = std::chrono::steady_clock::now();
    Int scanned = model.for_each_initial_tile(params, [](const IntVec&) {});
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    s.metrics = {{"candidates", static_cast<double>(scanned)}};
    return s;
  });
  register_table("INIT", init_table);
  return true;
}();

}  // namespace
