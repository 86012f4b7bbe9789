#pragma once
// Shared helpers for the deterministic chaos suite (tests/test_faults.cpp).
//
// The suite's core assertion is *byte-identical output under faults*: a run
// with a seeded FaultPlan (rank kill, message drop/duplication/delay, slow
// node) must print exactly the RESULT/MAX lines of the fault-free run.
// That is a meaningful check because every DP here is confluent — cell
// values are schedule-independent, and the tracked maximum tie-breaks on
// the lexicographically smallest location — so any difference means the
// fault-tolerance machinery lost or double-applied work.
//
// result_lines() reproduces the exact printf formats a generated program
// uses for its RESULT/MAX lines (runtime::ResultSink::print), so the
// equality proven here is the one end users would diff.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "problems/problems.hpp"
#include "tiling/model.hpp"

namespace dpgen::chaos {

/// One seed problem family, sized small enough that the full scenario
/// sweep stays inside the tier-1 time budget while still spanning many
/// tiles per rank (so faults land mid-run, not after the work is done).
struct ChaosCase {
  std::string name;
  problems::Problem problem;
  IntVec params;
  bool track_max = false;
};

inline std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> cases;
  {
    ChaosCase c;
    c.name = "bandit2";
    c.problem = problems::bandit2(/*tile_width=*/3);
    // Horizon 12: at 8 the wedge is so small that a rank can finish in
    // under a dozen transport ops, before any mid-run fault can fire.
    c.params = {12};
    cases.push_back(std::move(c));
  }
  {
    const std::vector<std::string> seqs = {problems::random_dna(20, 11),
                                           problems::random_dna(24, 12)};
    ChaosCase c;
    c.name = "lcs";
    c.problem = problems::lcs(seqs, /*tile_width=*/4);
    c.params = problems::sequence_params(seqs);
    cases.push_back(std::move(c));
  }
  {
    ChaosCase c;
    c.name = "edit_distance";
    c.problem = problems::edit_distance(problems::random_dna(22, 3),
                                        problems::random_dna(26, 4),
                                        /*tile_width=*/4);
    c.params = {22, 26};
    cases.push_back(std::move(c));
  }
  {
    const std::vector<std::string> seqs = {problems::random_dna(8, 5),
                                           problems::random_dna(9, 6),
                                           problems::random_dna(10, 7)};
    ChaosCase c;
    c.name = "msa";
    c.problem = problems::msa(seqs, /*tile_width=*/3);
    c.params = problems::sequence_params(seqs);
    cases.push_back(std::move(c));
  }
  {
    ChaosCase c;
    c.name = "smith_waterman";
    c.problem = problems::smith_waterman(problems::random_dna(24, 8),
                                         problems::random_dna(28, 9));
    c.params = {24, 28};
    c.track_max = true;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Formats the recorded values (sorted by coordinate for determinism) and
/// the tracked maximum exactly as a generated program prints them.
inline std::string result_lines(const engine::EngineResult& result,
                                bool track_max) {
  std::vector<IntVec> keys;
  keys.reserve(result.values.size());
  for (const auto& kv : result.values) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end());
  std::string out;
  char buf[64];
  auto point = [&](const char* label, const IntVec& p) {
    out += label;
    out += " (";
    for (std::size_t k = 0; k < p.size(); ++k) {
      std::snprintf(buf, sizeof(buf), k ? ", %lld" : "%lld",
                    static_cast<long long>(p[k]));
      out += buf;
    }
  };
  for (const IntVec& k : keys) {
    point("RESULT", k);
    std::snprintf(buf, sizeof(buf), ") = %.17g\n", result.values.at(k));
    out += buf;
  }
  if (track_max) {
    point("MAX", result.max_point);
    std::snprintf(buf, sizeof(buf), ") = %.17g\n", result.max_value);
    out += buf;
  }
  return out;
}

/// Runs one case through the engine with the case's probes and objective
/// shape applied on top of `opt`.
inline engine::EngineResult run_case(const ChaosCase& c,
                                     engine::EngineOptions opt) {
  tiling::TilingModel model(c.problem.spec);
  opt.probes.push_back(c.problem.objective);
  opt.track_max = c.track_max;
  return engine::run(model, c.params, c.problem.kernel, opt);
}

inline engine::EngineOptions base_options(int ranks, int threads,
                                          int queue_shards) {
  engine::EngineOptions opt;
  opt.ranks = ranks;
  opt.threads = threads;
  opt.queue_shards = queue_shards;
  // Generous hard deadline: recovery (recover_stall_seconds) must fire
  // long before this, and a hang is better reported as a stall than a
  // ctest timeout.
  opt.stall_timeout_seconds = 60.0;
  return opt;
}

/// The fault-free reference output for a case at the given topology.
inline std::string clean_lines(const ChaosCase& c, int ranks, int threads,
                               int queue_shards) {
  return result_lines(run_case(c, base_options(ranks, threads, queue_shards)),
                      c.track_max);
}

}  // namespace dpgen::chaos
