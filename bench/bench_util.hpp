#pragma once
// Shared helpers for the figure-reproduction benches.
//
// Every bench .cpp registers, from one static initializer, its trial
// functions (register_bench: "family/config" -> one measured sample) and
// its figure tables (register_table: each prints the series it regenerates
// under a leading "# <EXPID>" header, so EXPERIMENTS.md can be
// cross-checked mechanically).  They all link into the dpgen_benchsuite
// object library: `dpgen-bench` runs the benches with repeated trials and
// gates the medians against an archived baseline, and
// `dpgen-bench --table[=ID,...]` prints the tables.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/bench_registry.hpp"
#include "problems/problems.hpp"
#include "sim/cluster_sim.hpp"
#include "spec/problem_spec.hpp"
#include "support/str.hpp"
#include "tiling/model.hpp"

namespace dpgen::benchutil {

/// An n-per-side square tile grid workload (unit deps).
inline spec::ProblemSpec grid_spec(Int width) {
  spec::ProblemSpec s;
  s.name("grid")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("y >= 0")
      .constraint("y <= N")
      .dep("r1", {1, 0})
      .dep("r2", {0, 1})
      .load_balance({"x", "y"})
      .tile_widths({width, width})
      .center_code("V[loc] = 0.0;");
  return s;
}

/// A d-dimensional simplex workload with unit deps (bandit-shaped).
inline spec::ProblemSpec simplex_spec(int d, Int width,
                                      int lb_dims = 2) {
  spec::ProblemSpec s;
  s.name(cat("simplex", d)).params({"N"});
  std::vector<std::string> vars;
  for (int i = 0; i < d; ++i) vars.push_back(cat("x", i + 1));
  s.vars(vars);
  std::string sum;
  for (int i = 0; i < d; ++i) {
    s.constraint(vars[static_cast<std::size_t>(i)] + " >= 0");
    sum += (i ? " + " : "") + vars[static_cast<std::size_t>(i)];
  }
  s.constraint(sum + " <= N");
  for (int i = 0; i < d; ++i) {
    IntVec r(static_cast<std::size_t>(d), 0);
    r[static_cast<std::size_t>(i)] = 1;
    s.dep(cat("r", i + 1), r);
  }
  std::vector<std::string> lb(vars.begin(),
                              vars.begin() + std::min(lb_dims, d));
  s.load_balance(lb);
  s.tile_widths(IntVec(static_cast<std::size_t>(d), width));
  s.center_code("V[loc] = 0.0;");
  return s;
}

/// Finds the smallest N whose total location count reaches `target`.
inline Int size_for_cells(const tiling::TilingModel& model, Int target) {
  Int lo = 0, hi = 1;
  while (model.total_cells({hi}) < target) hi *= 2;
  while (lo < hi) {
    Int mid = lo + (hi - lo) / 2;
    if (model.total_cells({mid}) < target)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

inline void header(const char* exp_id, const char* what) {
  std::printf("# %s  %s\n", exp_id, what);
}

/// Seconds elapsed since `t0` (steady clock); trial-timing shorthand for
/// the registered benches.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Registers `name` in the process-wide BenchRegistry; used from a static
/// initializer in each bench .cpp.
inline bool register_bench(const std::string& name,
                           std::function<obs::BenchSample()> fn) {
  return obs::BenchRegistry::instance().add(name, std::move(fn));
}

/// Registers the table printer for the "# <id>" header it prints.
inline bool register_table(const std::string& id, std::function<void()> fn) {
  return obs::BenchRegistry::instance().add_table(id, std::move(fn));
}

}  // namespace dpgen::benchutil
