// Unit tests for the polyhedral layer: affine expressions, constraint
// systems, Fourier-Motzkin elimination, loop-bound synthesis, scanning and
// exact lattice counting.

#include <gtest/gtest.h>

#include <set>

#include "poly/count.hpp"
#include "support/str.hpp"
#include "poly/fm.hpp"
#include "poly/loopnest.hpp"
#include "poly/parse.hpp"
#include "poly/system.hpp"

namespace dpgen::poly {
namespace {

Vars xy() { return Vars({"x", "y"}); }

TEST(VarsTable, AddAndLookup) {
  Vars v;
  EXPECT_EQ(v.add("a"), 0);
  EXPECT_EQ(v.add("b"), 1);
  EXPECT_EQ(v.index_of("a"), 0);
  EXPECT_EQ(v.index_of("zz"), -1);
  EXPECT_EQ(v.require("b"), 1);
  EXPECT_THROW(v.require("zz"), Error);
  EXPECT_THROW(v.add("a"), Error);     // duplicate
  EXPECT_THROW(v.add("1bad"), Error);  // not an identifier
}

TEST(LinExprOps, EvalAndArithmetic) {
  Vars v = xy();
  LinExpr e = LinExpr::term(2, 0, 2) + LinExpr::term(2, 1, -1);  // 2x - y
  e.c = 3;
  EXPECT_EQ(e.eval({5, 4}), 2 * 5 - 4 + 3);
  LinExpr d = e * 2;
  EXPECT_EQ(d.eval({5, 4}), 2 * (2 * 5 - 4 + 3));
  EXPECT_EQ((-e).eval({5, 4}), -(2 * 5 - 4 + 3));
  EXPECT_EQ((e - e).eval({1, 1}), 0);
}

TEST(LinExprOps, ReduceGcd) {
  LinExpr e(2);
  e.set_coef(0, 4);
  e.set_coef(1, -6);
  e.c = 8;
  EXPECT_EQ(e.reduce_gcd(), 2);
  EXPECT_EQ(e.coef(0), 2);
  EXPECT_EQ(e.coef(1), -3);
  EXPECT_EQ(e.c, 4);
}

TEST(LinExprOps, ToString) {
  Vars v = xy();
  LinExpr e = LinExpr::term(2, 0, 2) - LinExpr::term(2, 1);
  e.c = -3;
  EXPECT_EQ(e.to_string(v), "2*x - y - 3");
  EXPECT_EQ(LinExpr(2, 0).to_string(v), "0");
  EXPECT_EQ(LinExpr(2, 7).to_string(v), "7");
  EXPECT_EQ((-LinExpr::term(2, 0)).to_string(v), "-x");
}

TEST(ParseExpr, Basics) {
  Vars v = xy();
  EXPECT_EQ(parse_expr("2*x - y + 3", v).eval({1, 1}), 4);
  EXPECT_EQ(parse_expr("x*2 + 1", v).eval({5, 0}), 11);
  EXPECT_EQ(parse_expr("-x + - y", v).eval({1, 2}), -3);
  EXPECT_EQ(parse_expr("7", v).eval({0, 0}), 7);
  EXPECT_THROW(parse_expr("x + z", v), Error);
  EXPECT_THROW(parse_expr("x +", v), Error);
  EXPECT_THROW(parse_expr("x 3", v), Error);
}

TEST(ParseConstraint, CanonicalForms) {
  Vars v = xy();
  // x <= y  ->  y - x >= 0
  Constraint c = parse_constraint("x <= y", v);
  EXPECT_EQ(c.rel, Rel::Ge);
  EXPECT_TRUE(c.e.eval({3, 3}) >= 0);
  EXPECT_TRUE(c.e.eval({4, 3}) < 0);

  // Strict: x < y  ->  y - x - 1 >= 0
  c = parse_constraint("x < y", v);
  EXPECT_TRUE(c.e.eval({2, 3}) >= 0);
  EXPECT_TRUE(c.e.eval({3, 3}) < 0);

  c = parse_constraint("x > y", v);
  EXPECT_TRUE(c.e.eval({4, 3}) >= 0);
  EXPECT_TRUE(c.e.eval({3, 3}) < 0);

  c = parse_constraint("x == 2*y", v);
  EXPECT_EQ(c.rel, Rel::Eq);
  EXPECT_EQ(c.e.eval({6, 3}), 0);
  EXPECT_NE(c.e.eval({5, 3}), 0);

  // Single '=' also accepted.
  EXPECT_EQ(parse_constraint("x = y", v).rel, Rel::Eq);

  EXPECT_THROW(parse_constraint("x + y", v), Error);
  EXPECT_THROW(parse_constraint("x <= y <= 3", v), Error);
}

System unit_square(Int n) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint(cat("x <= ", n), v));
  s.add(parse_constraint("y >= 0", v));
  s.add(parse_constraint(cat("y <= ", n), v));
  return s;
}

TEST(SystemOps, Contains) {
  System s = unit_square(3);
  EXPECT_TRUE(s.contains({0, 0}));
  EXPECT_TRUE(s.contains({3, 3}));
  EXPECT_FALSE(s.contains({4, 0}));
  EXPECT_FALSE(s.contains({-1, 2}));
}

TEST(SystemOps, NormalizeTightensIntegerInequalities) {
  Vars v = xy();
  System s(v);
  // 2x - 3 >= 0 over Z means x >= 2, i.e. x - 2 >= 0 after tightening.
  s.add_ge(parse_expr("2*x - 3", v));
  s.normalize();
  // gcd of coefficients is 2 only when the constant participates; here
  // gcd(2)=2 over coeffs, constant floor(-3/2) = -2.
  const auto& c = s.constraints()[0];
  EXPECT_EQ(c.e.coef(0), 1);
  EXPECT_EQ(c.e.c, -2);
  EXPECT_FALSE(s.contains({1, 0}));
  EXPECT_TRUE(s.contains({2, 0}));
}

TEST(SystemOps, SimplifyDropsDuplicatesAndDominated) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("x >= -5", v));  // dominated by x >= 0
  s.add_ge(LinExpr(2, 7));                // trivially true: 7 >= 0
  s.simplify();
  EXPECT_EQ(s.size(), 1);
  EXPECT_FALSE(s.known_infeasible());
}

TEST(SystemOps, SimplifyDetectsTrivialInfeasibility) {
  Vars v = xy();
  System s(v);
  s.add_ge(LinExpr(2, -1));  // -1 >= 0
  s.simplify();
  EXPECT_TRUE(s.known_infeasible());

  System s2(v);
  s2.add(parse_constraint("x == 1", v));
  s2.add(parse_constraint("x == 2", v));
  s2.simplify();
  EXPECT_TRUE(s2.known_infeasible());
}

TEST(SystemOps, NormalizeDetectsUnsatisfiableEquality) {
  Vars v = xy();
  System s(v);
  // 2x == 1 has no integer solution.
  s.add_eq(parse_expr("2*x - 1", v));
  s.normalize();
  EXPECT_TRUE(s.known_infeasible());
}

TEST(SystemOps, WithFixedFoldsConstant) {
  System s = unit_square(3);
  System f = s.with_fixed(0, 2);  // x := 2
  EXPECT_TRUE(f.contains({999, 0}));  // x coefficient is gone
  EXPECT_TRUE(f.contains({999, 3}));
  EXPECT_FALSE(f.contains({999, 4}));
  System g = s.with_fixed(0, 7);  // x := 7 violates x <= 3
  EXPECT_FALSE(g.contains({0, 0}));
}

TEST(FourierMotzkin, ProjectsTriangle) {
  // Triangle 0 <= x, 0 <= y, x + y <= 4; eliminating y must leave
  // 0 <= x <= 4.
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("y >= 0", v));
  s.add(parse_constraint("x + y <= 4", v));
  System p = s.eliminated(1);
  for (Int x = -2; x <= 6; ++x) {
    bool in = p.contains({x, 0});
    EXPECT_EQ(in, x >= 0 && x <= 4) << "x=" << x;
  }
  for (const auto& c : p.constraints()) EXPECT_EQ(c.e.coef(1), 0);
}

TEST(FourierMotzkin, UsesEqualityPivot) {
  // x == y + 1, 0 <= y <= 5; eliminating x keeps the y constraints intact.
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x == y + 1", v));
  s.add(parse_constraint("y >= 0", v));
  s.add(parse_constraint("y <= 5", v));
  s.add(parse_constraint("x <= 4", v));  // implies y <= 3
  System p = s.eliminated(0);
  for (Int y = -1; y <= 6; ++y)
    EXPECT_EQ(p.contains({0, y}), y >= 0 && y <= 3) << "y=" << y;
}

TEST(FourierMotzkin, EmptySystemStaysEmpty) {
  Vars v = xy();
  System s(v);
  System p = s.eliminated(0);
  EXPECT_EQ(p.size(), 0);
}

TEST(FourierMotzkin, DetectsInfeasibleAfterElimination) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 3", v));
  s.add(parse_constraint("x <= 1", v));
  System p = s.eliminated(0);
  EXPECT_TRUE(p.known_infeasible());
}

TEST(FourierMotzkin, RationalProjectionIsConservative) {
  // 2x == y, 0 <= y <= 5. Projection onto y over the rationals is [0,5];
  // integer y=1 has no integer x but scanning handles that via empty inner
  // ranges, so the projection must still contain y=1.
  Vars v = xy();
  System s(v);
  s.add_eq(parse_expr("2*x - y", v));
  s.add(parse_constraint("y >= 0", v));
  s.add(parse_constraint("y <= 5", v));
  System p = s.eliminated(0);
  EXPECT_TRUE(p.contains({0, 1}));
  EXPECT_TRUE(p.contains({0, 4}));
  EXPECT_FALSE(p.contains({0, 6}));
}

TEST(FourierMotzkin, StatsReportPruning) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("x >= -1", v));  // redundant
  s.add(parse_constraint("x <= 4", v));
  s.add(parse_constraint("y >= 0", v));
  (void)s.eliminated(0);
  FmStats st = fm_last_stats();
  EXPECT_GE(st.produced, st.kept);
  EXPECT_GE(st.kept, 1);
}

TEST(TransformSystems, RewritesOverNewVars) {
  // Square 0<=x<=7 transformed by x = i + 4t over vars (t, i).
  Vars v({"x"});
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("x <= 7", v));
  Vars nv({"t", "i"});
  LinExpr image = LinExpr::term(2, 1) + LinExpr::term(2, 0, 4);  // i + 4t
  System out = transform(s, nv, {image});
  EXPECT_TRUE(out.contains({0, 0}));   // x=0
  EXPECT_TRUE(out.contains({1, 3}));   // x=7
  EXPECT_FALSE(out.contains({1, 4}));  // x=8
  EXPECT_FALSE(out.contains({-1, 3}));
}

std::vector<int> all_vars(const System& s) {
  std::vector<int> o;
  for (int i = 0; i < s.vars().size(); ++i) o.push_back(i);
  return o;
}

TEST(LoopNestScan, SquareVisitsAllPointsOnce) {
  System s = unit_square(2);
  LoopNest nest = LoopNest::build(s, all_vars(s));
  std::set<IntVec> seen;
  for_each_point(nest, IntVec{0, 0}, [&](const IntVec& p) {
    EXPECT_TRUE(seen.insert(p).second) << "duplicate point";
    EXPECT_TRUE(s.contains(p));
  });
  EXPECT_EQ(seen.size(), 9u);
}

TEST(LoopNestScan, TriangleBothOrders) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("y >= 0", v));
  s.add(parse_constraint("x + y <= 3", v));
  for (std::vector<int> order : {std::vector<int>{0, 1}, {1, 0}}) {
    LoopNest nest = LoopNest::build(s, order);
    int count = 0;
    for_each_point(nest, IntVec{0, 0}, [&](const IntVec& p) {
      EXPECT_TRUE(s.contains(p));
      ++count;
    });
    EXPECT_EQ(count, 10);  // C(3+2,2)
  }
}

TEST(LoopNestScan, RationalBoundsUseFloorCeil) {
  // 1 <= 2x <= 7  =>  x in {1, 2, 3}
  Vars v({"x"});
  System s(v);
  s.add(parse_constraint("2*x >= 1", v));
  s.add(parse_constraint("2*x <= 7", v));
  LoopNest nest = LoopNest::build(s, {0});
  auto [lo, hi] = nest.range(0, {0});
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 3);
}

TEST(LoopNestScan, UnboundedDetected) {
  Vars v({"x"});
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  LoopNest nest = LoopNest::build(s, {0});
  EXPECT_TRUE(nest.unbounded());
  EXPECT_THROW(nest.range(0, {0}), Error);
}

TEST(LoopNestScan, EqualityGivesDegenerateRange) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x == 2", v));
  s.add(parse_constraint("y >= 0", v));
  s.add(parse_constraint("y <= 1", v));
  LoopNest nest = LoopNest::build(s, {0, 1});
  auto [lo, hi] = nest.range(0, {0, 0});
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 2);
}

TEST(LoopNestScan, EmptyInnerRangesSkipped) {
  // y must equal 2x and be <= 3: points (0,0) and (1,2) only.
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("y == 2*x", v));
  s.add(parse_constraint("y <= 3", v));
  LoopNest nest = LoopNest::build(s, {0, 1});
  std::set<IntVec> seen;
  for_each_point(nest, IntVec{0, 0},
                 [&](const IntVec& p) { seen.insert(p); });
  EXPECT_EQ(seen, (std::set<IntVec>{{0, 0}, {1, 2}}));
}

Int binom(Int n, Int k) {
  Int r = 1;
  for (Int i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

TEST(Counting, SimplexMatchesBinomial) {
  // |{x in Z^d : x_i >= 0, sum x_i <= N}| == C(N+d, d)
  for (int d = 1; d <= 4; ++d) {
    Vars v;
    for (int i = 0; i < d; ++i) v.add(cat("x", i));
    System s(v);
    LinExpr sum(d);
    for (int i = 0; i < d; ++i) {
      s.add_ge(LinExpr::term(d, i));
      sum += LinExpr::term(d, i);
    }
    for (Int n : {0, 1, 5, 9}) {
      System sn(v);
      for (const auto& c : s.constraints()) sn.add(c);
      LinExpr cap = -sum;
      cap.c = n;
      sn.add_ge(cap);  // N - sum >= 0
      LatticeCounter counter(sn, all_vars(sn));
      EXPECT_EQ(counter.count(IntVec(static_cast<std::size_t>(d), 0)),
                binom(n + d, d))
          << "d=" << d << " N=" << n;
    }
  }
}

TEST(Counting, EmptyPolytopeCountsZero) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 3", v));
  s.add(parse_constraint("x <= 1", v));
  s.add(parse_constraint("y >= 0", v));
  s.add(parse_constraint("y <= 5", v));
  LatticeCounter counter(s, {0, 1});
  EXPECT_EQ(counter.count({0, 0}), 0);
}

TEST(Counting, FixedParameterViaSeed) {
  // Count points of 0 <= x <= N with N supplied in the seed.
  Vars v({"N", "x"});
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("x <= N", v));
  LatticeCounter counter(s, {1});
  EXPECT_EQ(counter.count({10, 0}), 11);
  EXPECT_EQ(counter.count({0, 0}), 1);
  EXPECT_EQ(counter.count({-3, 0}), 0);
}

/// Property check: scanning a random system must visit exactly the points
/// that brute-force membership filtering finds over the bounding box, with
/// no duplicates, in every scan order.
TEST(LoopNestScan, RandomSystemsMatchBruteForce) {
  std::uint64_t state = 12345;
  auto rnd = [&](Int lo, Int hi) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return lo + static_cast<Int>((state >> 33) %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  };
  for (int trial = 0; trial < 30; ++trial) {
    const int d = static_cast<int>(rnd(1, 3));
    Vars v;
    for (int k = 0; k < d; ++k) v.add(cat("x", k));
    System s(v);
    const Int box = 6;
    for (int k = 0; k < d; ++k) {
      s.add_ge(LinExpr::term(d, k));                    // x_k >= 0
      LinExpr hi = -LinExpr::term(d, k);
      hi.c = box;
      s.add_ge(std::move(hi));                          // x_k <= box
    }
    // Up to two random extra constraints.
    for (int extra = 0; extra < 2; ++extra) {
      LinExpr e(d);
      for (int k = 0; k < d; ++k) e.set_coef(k, rnd(-2, 2));
      e.c = rnd(-3, 12);
      s.add_ge(std::move(e));
    }
    // Brute force over the box.
    std::set<IntVec> expected;
    IntVec p(static_cast<std::size_t>(d), 0);
    std::function<void(int)> enumerate = [&](int k) {
      if (k == d) {
        if (s.contains(p)) expected.insert(p);
        return;
      }
      for (Int x = 0; x <= box; ++x) {
        p[static_cast<std::size_t>(k)] = x;
        enumerate(k + 1);
      }
    };
    enumerate(0);
    // Every permutation of scan order must agree.
    std::vector<int> order;
    for (int k = 0; k < d; ++k) order.push_back(k);
    do {
      LoopNest nest = LoopNest::build(s, order);
      std::set<IntVec> seen;
      for_each_point(nest, IntVec(static_cast<std::size_t>(d), 0),
                     [&](const IntVec& pt) {
                       EXPECT_TRUE(seen.insert(pt).second)
                           << "duplicate " << vec_to_string(pt);
                       EXPECT_TRUE(s.contains(pt)) << vec_to_string(pt);
                     });
      EXPECT_EQ(seen, expected) << "trial " << trial;
      LatticeCounter counter(s, order);
      EXPECT_EQ(counter.count(IntVec(static_cast<std::size_t>(d), 0)),
                static_cast<Int>(expected.size()));
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

TEST(RedundancyRemoval, DropsImpliedKeepsFacets) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("y >= 0", v));
  s.add(parse_constraint("x + y <= 10", v));
  s.add(parse_constraint("x <= 25", v));      // implied by the two above
  s.add(parse_constraint("2*x + y <= 30", v));  // implied as well
  s.remove_redundant();
  EXPECT_EQ(s.size(), 3);
  // Semantics preserved.
  EXPECT_TRUE(s.contains({10, 0}));
  EXPECT_FALSE(s.contains({11, 0}));
  EXPECT_FALSE(s.contains({-1, 3}));
}

TEST(RedundancyRemoval, KeepsEqualitiesUntouched) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x == y", v));
  s.add(parse_constraint("x >= 0", v));
  s.add(parse_constraint("x <= 5", v));
  s.add(parse_constraint("y <= 9", v));  // implied via x == y, x <= 5
  s.remove_redundant();
  int eqs = 0;
  for (const auto& c : s.constraints())
    if (c.rel == Rel::Eq) ++eqs;
  EXPECT_EQ(eqs, 1);
  EXPECT_EQ(s.size(), 3);
}

TEST(Rendering, ConstraintAndSystemToString) {
  Vars v = xy();
  System s(v);
  s.add(parse_constraint("x + y <= 4", v));
  s.add(parse_constraint("x == y", v));
  std::string text = s.to_string();
  EXPECT_NE(text.find(">= 0"), std::string::npos);
  EXPECT_NE(text.find("== 0"), std::string::npos);
  // Each rendered constraint parses back to an equivalent one.
  for (const auto& c : s.constraints()) {
    Constraint back = parse_constraint(c.to_string(v), v);
    EXPECT_EQ(back.rel, c.rel);
    for (Int x = -1; x <= 5; ++x)
      for (Int y = -1; y <= 5; ++y)
        EXPECT_EQ(back.e.eval({x, y}) >= 0, c.e.eval({x, y}) >= 0);
  }
}

TEST(Rendering, BoundValueMatchesDefinition) {
  // 3x - 7 >= 0 -> x >= ceil(7/3) = 3;  -2x + 9 >= 0 -> x <= floor(9/2)=4.
  Bound lo;
  lo.coef = 3;
  lo.rest = LinExpr(1, -7);
  EXPECT_EQ(lo.value({0}), 3);
  EXPECT_TRUE(lo.is_lower());
  Bound hi;
  hi.coef = -2;
  hi.rest = LinExpr(1, 9);
  EXPECT_EQ(hi.value({0}), 4);
  EXPECT_FALSE(hi.is_lower());
}

TEST(Counting, LatticeWithStride) {
  // 0 <= 3x <= 10: x in {0,1,2,3}
  Vars v({"x"});
  System s(v);
  s.add(parse_constraint("3*x >= 0", v));
  s.add(parse_constraint("3*x <= 10", v));
  LatticeCounter counter(s, {0});
  EXPECT_EQ(counter.count({0}), 4);
}

}  // namespace
}  // namespace dpgen::poly
