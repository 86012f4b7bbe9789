#pragma once
// Shared fuzzing helpers: a deterministic RNG, a random-valid-spec
// generator whose center code and engine kernel are guaranteed to match,
// used by both the engine fuzz suite and the codegen fuzz suite.

#include <string>

#include "engine/engine.hpp"
#include "spec/problem_spec.hpp"
#include "support/str.hpp"

namespace dpgen::fuzz {

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 2654435761u + 1) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  Int range(Int lo, Int hi) {  // inclusive
    return lo + static_cast<Int>(next() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  }
};

/// Builds a random valid spec: a box [0,N]^d (d in 1..3), optionally one
/// coupling constraint, sign-consistent random template vectors, random
/// widths, and center code implementing the same weighted sum as
/// generic_kernel.
inline spec::ProblemSpec random_spec(Rng& rng, int* out_ndeps) {
  const int d = static_cast<int>(rng.range(1, 3));
  spec::ProblemSpec s;
  s.name("fuzz").params({"N"});
  std::vector<std::string> vars;
  for (int k = 0; k < d; ++k) vars.push_back(cat("x", k + 1));
  s.vars(vars);
  for (int k = 0; k < d; ++k) {
    s.constraint(vars[static_cast<std::size_t>(k)] + " >= 0");
    s.constraint(vars[static_cast<std::size_t>(k)] + " <= N");
  }
  if (rng.range(0, 1) == 1 && d >= 2) {
    std::string sum;
    for (int k = 0; k < d; ++k) {
      Int a = rng.range(0, 2);
      if (a == 0) continue;
      sum += cat(sum.empty() ? "" : " + ", a, "*",
                 vars[static_cast<std::size_t>(k)]);
    }
    if (!sum.empty()) s.constraint(sum + " <= 2*N");
  }

  std::vector<int> signs;
  for (int k = 0; k < d; ++k)
    signs.push_back(rng.range(0, 1) == 0 ? 1 : -1);

  const int ndeps = static_cast<int>(rng.range(1, 3));
  *out_ndeps = ndeps;
  for (int j = 0; j < ndeps; ++j) {
    IntVec r(static_cast<std::size_t>(d), 0);
    bool nonzero = false;
    while (!nonzero) {
      for (int k = 0; k < d; ++k) {
        Int mag = rng.range(0, 2);
        r[static_cast<std::size_t>(k)] =
            mag * signs[static_cast<std::size_t>(k)];
        if (mag != 0) nonzero = true;
      }
    }
    s.dep(cat("r", j + 1), r);
  }

  IntVec widths;
  for (int k = 0; k < d; ++k) widths.push_back(rng.range(1, 5));
  s.tile_widths(widths);
  s.load_balance({vars[0]});

  std::string center = "double dp_v = 1.0;\n";
  for (int j = 0; j < ndeps; ++j)
    center += cat("if (is_valid_r", j + 1, ") dp_v += V[loc_r", j + 1, "] / ",
                  j + 2, ".0;\n");
  center += "V[loc] = dp_v;\n";
  s.center_code(center);
  return s;
}

/// The engine kernel matching random_spec's center code exactly.
inline engine::CenterFn generic_kernel(int ndeps) {
  return [ndeps](const engine::Cell& c) {
    double v = 1.0;
    for (int j = 0; j < ndeps; ++j)
      if (c.valid[j])
        v += c.V[c.loc_dep[j]] / static_cast<double>(j + 2);
    c.V[c.loc] = v;
  };
}

}  // namespace dpgen::fuzz
