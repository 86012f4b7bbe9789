#pragma once
// Loop-bound synthesis from a constraint system (paper sections IV.D, IV.L).
//
// Given a scan order v_0, ..., v_{m-1} of the variables to iterate (all
// other variables act as parameters whose values are fixed before scanning),
// a LoopNest holds, for every level k, the lower/upper bound expressions of
// v_k in terms of the parameters and v_0..v_{k-1}.  These are exactly the
// ub_k/lb_k functions of the paper's Figure 3, realised either at run time
// (range()) or as emitted C code (by the codegen module).

#include <utility>
#include <vector>

#include "poly/system.hpp"

namespace dpgen::poly {

/// One bound on a scan variable: `coef * v + rest >= 0` where coef != 0.
/// coef > 0 yields a lower bound  v >= ceil(-rest / coef); coef < 0 yields
/// an upper bound  v <= floor(rest / -coef).
struct Bound {
  LinExpr rest;  // never mentions v or later scan variables
  Int coef = 0;

  bool is_lower() const { return coef > 0; }

  /// Evaluates the bound at `point` (a full-width assignment in which the
  /// parameters and all earlier scan variables are set).
  Int value(const IntVec& point) const {
    Int r = rest.eval(point);
    return coef > 0 ? ceil_div(neg_ck(r), coef) : floor_div(r, neg_ck(coef));
  }
};

/// Per-level loop bounds for a fixed scan order.
class LoopNest {
 public:
  /// Builds the nest by FM-eliminating the scan variables innermost-first,
  /// reading off the bounds of v_k from the system in which v_{k+1}..v_{m-1}
  /// have been eliminated.  `dirs` (optional, +1/-1 per level) sets the
  /// scan direction of each loop: +1 iterates lo..hi, -1 iterates hi..lo
  /// (the paper's Figure 3 iterates descending when dependencies are
  /// positive).
  static LoopNest build(const System& sys, const std::vector<int>& order,
                        const std::vector<int>& dirs = {});

  /// Scan direction of a level: +1 ascending, -1 descending.
  int dir(int level) const { return dirs_[static_cast<std::size_t>(level)]; }

  int levels() const { return static_cast<int>(order_.size()); }
  int var_at(int level) const { return order_[static_cast<std::size_t>(level)]; }

  const std::vector<Bound>& lowers(int level) const {
    return lowers_[static_cast<std::size_t>(level)];
  }
  const std::vector<Bound>& uppers(int level) const {
    return uppers_[static_cast<std::size_t>(level)];
  }

  /// Computes the integer range [lo, hi] of the level-k variable given
  /// `point`, a full-width assignment with parameters and outer scan
  /// variables filled in.  The range may be empty (lo > hi).  For a system
  /// discovered infeasible at build time every range is empty.
  std::pair<Int, Int> range(int level, const IntVec& point) const;

  /// True when any level of the nest lacks a lower or an upper bound,
  /// i.e. the polytope is unbounded in the scan directions.
  bool unbounded() const { return unbounded_; }

 private:
  std::vector<int> order_;
  std::vector<int> dirs_;
  std::vector<std::vector<Bound>> lowers_;
  std::vector<std::vector<Bound>> uppers_;
  bool unbounded_ = false;
  bool infeasible_ = false;  // constant-false constraint found at build
};

namespace detail {
template <typename Fn>
void scan_level(const LoopNest& nest, IntVec& point, int level, Fn& fn) {
  if (level == nest.levels()) {
    fn(const_cast<const IntVec&>(point));
    return;
  }
  auto [lo, hi] = nest.range(level, point);
  auto v = static_cast<std::size_t>(nest.var_at(level));
  if (nest.dir(level) >= 0) {
    for (Int x = lo; x <= hi; ++x) {
      point[v] = x;
      scan_level(nest, point, level + 1, fn);
    }
  } else {
    for (Int x = hi; x >= lo; --x) {
      point[v] = x;
      scan_level(nest, point, level + 1, fn);
    }
  }
}
}  // namespace detail

/// Invokes fn(point) for every integer point of the nest's system, scanned
/// in nest order.  `seed` is a full-width assignment; parameter components
/// must be pre-set and are left untouched.
template <typename Fn>
void for_each_point(const LoopNest& nest, IntVec seed, Fn&& fn) {
  detail::scan_level(nest, seed, 0, fn);
}

}  // namespace dpgen::poly
