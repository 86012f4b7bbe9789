// SUITE — engine throughput across the packaged problem suite: locations
// per second through the full tiled scheduler (interpreted center loops),
// plus tiles and edge traffic per problem.  Not a paper figure; this is
// the library's own performance baseline so regressions are visible.

#include "bench_util.hpp"

#include "engine/engine.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

/// One engine run for the registered suite points: cells/s through the
/// full tiled scheduler at sizes small enough for repeated trials.
obs::BenchSample suite_sample(const problems::Problem& p,
                              const IntVec& params) {
  tiling::TilingModel model(p.spec);
  Int cells = model.total_cells(params);
  engine::EngineOptions opt;
  opt.probes = {p.objective};
  auto result = engine::run(model, params, p.kernel, opt);
  obs::BenchSample s;
  s.seconds = result.rank_stats[0].total_seconds;
  s.metrics = {
      {"cells", static_cast<double>(cells)},
      {"tiles",
       static_cast<double>(result.total(&runtime::RunStats::tiles_executed))},
      {"cells_per_s",
       s.seconds > 0 ? static_cast<double>(cells) / s.seconds : 0.0}};
  return s;
}

void suite_table() {
  header("SUITE", "engine throughput per problem (1 rank, 1 thread)");
  std::printf("%-14s %-14s %-10s %-12s %-14s\n", "problem", "cells",
              "tiles", "seconds", "Mcells/s");
  struct Case {
    std::string name;
    problems::Problem prob;
    IntVec params;
  };
  std::vector<Case> cases;
  cases.push_back({"bandit2", problems::bandit2(6), {40}});
  cases.push_back({"bandit3", problems::bandit3(4), {14}});
  cases.push_back({"bandit2_delay", problems::bandit2_delay(4), {12}});
  {
    auto seqs = std::vector<std::string>{problems::random_dna(60, 1),
                                         problems::random_dna(60, 2),
                                         problems::random_dna(60, 3)};
    cases.push_back(
        {"msa3", problems::msa(seqs, 8), problems::sequence_params(seqs)});
  }
  {
    auto seqs = std::vector<std::string>{problems::random_dna(300, 4),
                                         problems::random_dna(300, 5)};
    cases.push_back(
        {"lcs2", problems::lcs(seqs, 16), problems::sequence_params(seqs)});
  }
  {
    std::string a = problems::random_dna(120, 6),
                b = problems::random_dna(120, 7);
    cases.push_back({"align_affine", problems::align_affine(a, b),
                     problems::sequence_params({a, b})});
  }
  cases.push_back({"seam", problems::seam_carving(32), {300, 300}});
  cases.push_back({"coin_change", problems::coin_change({1, 7, 23}, 16),
                   {5000}});

  for (auto& c : cases) {
    tiling::TilingModel model(c.prob.spec);
    Int cells = model.total_cells(c.params);
    engine::EngineOptions opt;
    opt.probes = {c.prob.objective};
    auto result = engine::run(model, c.params, c.prob.kernel, opt);
    double secs = result.rank_stats[0].total_seconds;
    std::printf("%-14s %-14lld %-10lld %-12.4f %-14.2f\n", c.name.c_str(),
                static_cast<long long>(cells),
                result.total(&runtime::RunStats::tiles_executed), secs,
                static_cast<double>(cells) / secs / 1e6);
  }
  std::printf("\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("suite/lcs2_n150", [] {
    auto seqs = std::vector<std::string>{problems::random_dna(150, 4),
                                         problems::random_dna(150, 5)};
    return suite_sample(problems::lcs(seqs, 16),
                        problems::sequence_params(seqs));
  });
  register_bench("suite/msa3_n40", [] {
    auto seqs = std::vector<std::string>{problems::random_dna(40, 1),
                                         problems::random_dna(40, 2),
                                         problems::random_dna(40, 3)};
    return suite_sample(problems::msa(seqs, 8),
                        problems::sequence_params(seqs));
  });
  register_bench("suite/seam_200x200", [] {
    return suite_sample(problems::seam_carving(32), {200, 200});
  });
  register_table("SUITE", suite_table);
  return true;
}();

}  // namespace
