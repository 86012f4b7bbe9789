// Unit and property tests for the tiling model: extended/tile spaces, tile
// dependencies, ghost geometry and mapping functions, pack spaces, validity
// checks, initial-tile detection and the load balancer.

#include <gtest/gtest.h>

#include <set>

#include "tiling/balance.hpp"
#include "tiling/model.hpp"

namespace dpgen::tiling {
namespace {

spec::ProblemSpec line_spec(Int width, IntVec dep = {1}) {
  spec::ProblemSpec s;
  s.name("line")
      .params({"N"})
      .vars({"x"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .dep("r1", std::move(dep))
      .load_balance({"x"})
      .tile_widths({width})
      .center_code("V[loc] = 0.0;");
  return s;
}

spec::ProblemSpec triangle_spec(Int width, std::vector<IntVec> deps) {
  spec::ProblemSpec s;
  s.name("tri").params({"N"}).vars({"x", "y"});
  s.constraint("x >= 0").constraint("y >= 0").constraint("x + y <= N");
  int i = 1;
  for (auto& d : deps) s.dep("r" + std::to_string(i++), std::move(d));
  s.load_balance({"x", "y"}).tile_widths({width, width});
  s.center_code("V[loc] = 0.0;");
  return s;
}

TEST(TilingLine, TileSpaceAndCounts) {
  TilingModel m(line_spec(4));
  // x in [0, 10], width 4: tiles 0, 1, 2.
  EXPECT_TRUE(m.tile_in_space({10}, {0}));
  EXPECT_TRUE(m.tile_in_space({10}, {2}));
  EXPECT_FALSE(m.tile_in_space({10}, {3}));
  EXPECT_FALSE(m.tile_in_space({10}, {-1}));
  EXPECT_EQ(m.total_tiles({10}), 3);
  EXPECT_EQ(m.total_cells({10}), 11);
  EXPECT_EQ(m.cell_count({10}, {2}), 3);  // partial boundary tile {8,9,10}
  EXPECT_EQ(m.cell_count({10}, {0}), 4);
}

TEST(TilingLine, CellScanIsDescendingForPositiveDeps) {
  TilingModel m(line_spec(4));
  std::vector<Int> xs;
  m.for_each_cell({10}, {1},
                  [&](const IntVec& local, const IntVec& global) {
                    EXPECT_EQ(global[0], local[0] + 4);
                    xs.push_back(global[0]);
                  });
  EXPECT_EQ(xs, (std::vector<Int>{7, 6, 5, 4}));
}

TEST(TilingLine, CellScanIsAscendingForNegativeDeps) {
  TilingModel m(line_spec(4, {-1}));
  std::vector<Int> xs;
  m.for_each_cell({10}, {0},
                  [&](const IntVec&, const IntVec& g) { xs.push_back(g[0]); });
  EXPECT_EQ(xs, (std::vector<Int>{0, 1, 2, 3}));
}

TEST(TilingLine, EdgesAndGhosts) {
  TilingModel m(line_spec(4));
  ASSERT_EQ(m.num_edges(), 1);
  EXPECT_EQ(m.edges()[0].offset, (IntVec{1}));
  EXPECT_EQ(m.ghost_lo(), (IntVec{0}));
  EXPECT_EQ(m.ghost_hi(), (IntVec{1}));
  EXPECT_EQ(m.buffer_extents(), (IntVec{5}));
  EXPECT_EQ(m.buffer_size(), 5);
  EXPECT_EQ(m.dep_loc_offset(0), 1);
  // Slab: the producer's low cell only.
  EXPECT_EQ(m.edges()[0].box_lo, (IntVec{0}));
  EXPECT_EQ(m.edges()[0].box_hi, (IntVec{0}));
}

TEST(TilingLine, LongRangeDepSpansTwoTiles) {
  // r = (3) with width 2 crosses one or two tile boundaries.
  TilingModel m(line_spec(2, {3}));
  ASSERT_EQ(m.num_edges(), 2);
  EXPECT_EQ(m.edges()[0].offset, (IntVec{1}));
  EXPECT_EQ(m.edges()[1].offset, (IntVec{2}));
  EXPECT_EQ(m.ghost_hi(), (IntVec{3}));
}

TEST(TilingLine, NegativeDepGhostsOnLowSide) {
  TilingModel m(line_spec(4, {-2}));
  ASSERT_EQ(m.num_edges(), 1);
  EXPECT_EQ(m.edges()[0].offset, (IntVec{-1}));
  EXPECT_EQ(m.ghost_lo(), (IntVec{2}));
  EXPECT_EQ(m.ghost_hi(), (IntVec{0}));
  EXPECT_EQ(m.buffer_extents(), (IntVec{6}));
}

TEST(TilingTriangle, DiagonalDepYieldsThreeOffsets) {
  // The paper's IV.F example: template <1,1> causes dependencies on
  // t+(1,0), t+(1,1) and t+(0,1).
  TilingModel m(triangle_spec(4, {{1, 1}}));
  ASSERT_EQ(m.num_edges(), 3);
  std::set<IntVec> offsets;
  for (const auto& e : m.edges()) offsets.insert(e.offset);
  EXPECT_EQ(offsets, (std::set<IntVec>{{0, 1}, {1, 0}, {1, 1}}));
}

TEST(TilingTriangle, DepsOfInteriorAndBoundaryTiles) {
  TilingModel m(triangle_spec(4, {{1, 0}, {0, 1}}));
  // N=15: tiles satisfy 4tx + 4ty <= 15 (roughly). Tile (0,0) depends on
  // (1,0) and (0,1); the extreme tile on the x axis has fewer deps.
  auto deps00 = m.deps_of({15}, {0, 0});
  EXPECT_EQ(deps00.size(), 2u);
  auto deps30 = m.deps_of({15}, {3, 0});  // x in [12,15]: corner tile
  EXPECT_EQ(deps30.size(), 0u);
}

TEST(TilingTriangle, MappingFunctionIndicesAreConsistent) {
  TilingModel m(triangle_spec(4, {{1, 0}, {0, 1}}));
  // extents are (5, 5); strides (5, 1); ghosts high by one in each dim.
  EXPECT_EQ(m.buffer_extents(), (IntVec{5, 5}));
  EXPECT_EQ(m.strides(), (IntVec{5, 1}));
  EXPECT_EQ(m.local_index({0, 0}), 0);
  EXPECT_EQ(m.local_index({1, 2}), 7);
  EXPECT_EQ(m.dep_loc_offset(0), 5);
  EXPECT_EQ(m.dep_loc_offset(1), 1);
  // Ghost coordinates address the high edges.
  EXPECT_EQ(m.local_index({4, 0}), 20);
  EXPECT_EQ(m.local_index({0, 4}), 4);
}

TEST(TilingTriangle, ValidityChecksOnlyForViolableConstraints) {
  TilingModel m(triangle_spec(4, {{1, 0}, {0, 1}}));
  // Only "x + y <= N" can be violated by either dep; x >= 0 / y >= 0
  // cannot (positive shifts).
  ASSERT_EQ(m.dep_checks(0).size(), 1u);
  ASSERT_EQ(m.dep_checks(1).size(), 1u);
  // dep r1 at point (params=5, x=3, y=2): x+1+y = 6 > 5 -> invalid.
  EXPECT_FALSE(m.dep_valid_at({5, 3, 2}, 0));
  EXPECT_TRUE(m.dep_valid_at({5, 2, 2}, 0));
  EXPECT_FALSE(m.dep_valid_at({5, 2, 3}, 1));
}

TEST(TilingTriangle, PackCellsClipToGlobalSpace) {
  TilingModel m(triangle_spec(4, {{1, 0}, {0, 1}}));
  // Edge (1,0): producer packs its i_x == 0 slab, all valid i_y.
  int edge_x = -1;
  for (int e = 0; e < m.num_edges(); ++e)
    if (m.edges()[static_cast<std::size_t>(e)].offset == IntVec{1, 0})
      edge_x = e;
  ASSERT_GE(edge_x, 0);
  // Producer (1, 0) with N=9: x in [4,7], y in [0, min(3, 9-x)] -> at
  // i_x = 0 (x=4), y in [0,3]: 4 cells.
  std::vector<IntVec> cells;
  m.for_each_pack_cell({9}, {1, 0}, edge_x,
                       [&](const IntVec& j) { cells.push_back(j); });
  EXPECT_EQ(cells.size(), 4u);
  for (const auto& j : cells) EXPECT_EQ(j[0], 0);
  // Producer (1, 1): x in [4,7], y in [4,5] clipped by x+y<=9: at x=4,
  // y in [4,5]: 2 cells.
  cells.clear();
  m.for_each_pack_cell({9}, {1, 1}, edge_x,
                       [&](const IntVec& j) { cells.push_back(j); });
  EXPECT_EQ(cells.size(), 2u);
}

/// Brute-force initial tiles: tiles whose every dependency is outside.
std::set<IntVec> brute_force_initial(const TilingModel& m,
                                     const IntVec& params) {
  std::set<IntVec> out;
  m.for_each_tile(params, [&](const IntVec& t) {
    if (m.deps_of(params, t).empty()) out.insert(t);
  });
  return out;
}

TEST(InitialTiles, MatchBruteForceAcrossShapes) {
  struct Case {
    spec::ProblemSpec spec;
    IntVec params;
  };
  std::vector<Case> cases;
  cases.push_back({line_spec(4), {10}});
  cases.push_back({line_spec(4, {-1}), {10}});
  cases.push_back({line_spec(2, {3}), {13}});
  cases.push_back({triangle_spec(4, {{1, 0}, {0, 1}}), {15}});
  cases.push_back({triangle_spec(3, {{1, 1}}), {11}});
  cases.push_back({triangle_spec(5, {{1, 0}, {0, 1}, {1, 1}}), {23}});
  for (auto& c : cases) {
    TilingModel m(std::move(c.spec));
    std::set<IntVec> expected = brute_force_initial(m, c.params);
    std::set<IntVec> got;
    Int scanned =
        m.for_each_initial_tile(c.params, [&](const IntVec& t) {
          EXPECT_TRUE(got.insert(t).second) << "duplicate initial tile";
        });
    EXPECT_EQ(got, expected) << m.problem().problem_name();
    EXPECT_GE(scanned, static_cast<Int>(expected.size()));
  }
}

TEST(InitialTiles, FaceScanIsSubquadraticOnTriangle) {
  // The candidate scan should touch O(n) tiles of the n^2/2-tile triangle.
  TilingModel m(triangle_spec(2, {{1, 0}, {0, 1}}));
  Int total = m.total_tiles({40});
  Int scanned = m.for_each_initial_tile({40}, [](const IntVec&) {});
  EXPECT_LT(scanned, total / 2) << "face scan degenerated to a full scan";
}

TEST(TilingCounts, LbCellCountsSumToTotals) {
  TilingModel m(triangle_spec(4, {{1, 0}, {0, 1}}));
  IntVec params{17};
  Int cells = 0, tiles = 0;
  m.for_each_lb_cell(params, [&](const IntVec& lb) {
    cells += m.cell_count_lb(params, lb);
    tiles += m.tile_count_lb(params, lb);
  });
  EXPECT_EQ(cells, m.total_cells(params));
  EXPECT_EQ(tiles, m.total_tiles(params));
}

TEST(TilingCounts, CellCountsMatchScan) {
  TilingModel m(triangle_spec(3, {{1, 1}}));
  IntVec params{10};
  m.for_each_tile(params, [&](const IntVec& t) {
    Int n = 0;
    m.for_each_cell(params, t,
                    [&](const IntVec&, const IntVec&) { ++n; });
    EXPECT_EQ(n, m.cell_count(params, t)) << vec_to_string(t);
  });
}

TEST(TilingCounts, CellCountFnMatchesGenericOnSeparableSpec) {
  // Rectangular local space with widths that do not divide the extent, so
  // boundary tiles are clipped in one or both dimensions.
  spec::ProblemSpec s;
  s.name("g").params({"N"}).vars({"x", "y"});
  s.constraint("x >= 0").constraint("y >= 0");
  s.constraint("x <= N").constraint("y <= N");
  s.dep("r1", {1, 0}).dep("r2", {0, 1});
  s.load_balance({"x"}).tile_widths({3, 4});
  s.center_code("V[loc] = 0.0;");
  TilingModel m(std::move(s));
  IntVec params{13};
  CellCountFn fn = m.cell_count_fn(params);
  ASSERT_TRUE(fn.ok());
  Int total = 0;
  m.for_each_tile(params, [&](const IntVec& t) {
    EXPECT_EQ(fn.count(t), m.cell_count(params, t)) << vec_to_string(t);
    total += fn.count(t);
  });
  EXPECT_EQ(total, m.total_cells(params));
}

TEST(TilingCounts, CellCountFnRejectsCoupledLocalSpace) {
  // x + y <= N couples the two local variables: the per-dimension product
  // form is invalid, so the specialised counter must decline and leave
  // callers on the generic path.
  TilingModel m(triangle_spec(3, {{1, 0}, {0, 1}}));
  EXPECT_FALSE(m.cell_count_fn({10}).ok());
}

TEST(LoadBalance, SingleRankOwnsEverything) {
  TilingModel m(triangle_spec(4, {{1, 0}, {0, 1}}));
  LoadBalancer lb(m, {15}, 1);
  EXPECT_EQ(lb.owner({0, 0}), 0);
  EXPECT_EQ(lb.owned_tiles(0), m.total_tiles({15}));
  EXPECT_EQ(lb.owned_work(0), m.total_cells({15}));
  EXPECT_DOUBLE_EQ(lb.imbalance(), 1.0);
}

TEST(LoadBalance, WorkSplitsRoughlyEvenly) {
  TilingModel m(triangle_spec(2, {{1, 0}, {0, 1}}));
  IntVec params{39};
  for (int ranks : {2, 3, 4, 8}) {
    LoadBalancer lb(m, params, ranks);
    Int total = 0;
    for (int r = 0; r < ranks; ++r) {
      EXPECT_GT(lb.owned_work(r), 0) << "rank " << r << " starved";
      total += lb.owned_work(r);
    }
    EXPECT_EQ(total, m.total_cells(params));
    EXPECT_LT(lb.imbalance(), 1.35) << ranks << " ranks";
  }
}

TEST(LoadBalance, OwnersPartitionAllTiles) {
  TilingModel m(triangle_spec(3, {{1, 0}, {0, 1}}));
  IntVec params{20};
  LoadBalancer lb(m, params, 3);
  std::vector<Int> counted(3, 0);
  m.for_each_tile(params, [&](const IntVec& t) {
    int o = lb.owner(t);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, 3);
    ++counted[static_cast<std::size_t>(o)];
  });
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(counted[static_cast<std::size_t>(r)], lb.owned_tiles(r));
}

TEST(LoadBalance, HyperplaneMethodAlsoPartitions) {
  TilingModel m(triangle_spec(2, {{1, 0}, {0, 1}}));
  IntVec params{23};
  LoadBalancer lb(m, params, 4, BalanceMethod::kHyperplane);
  Int total = 0;
  for (int r = 0; r < 4; ++r) total += lb.owned_work(r);
  EXPECT_EQ(total, m.total_cells(params));
  EXPECT_LT(lb.imbalance(), 1.5);
}

TEST(LoadBalance, MultiRankWithoutLbDimsRejected) {
  spec::ProblemSpec s = line_spec(4);
  s.load_balance({});
  TilingModel m(std::move(s));
  EXPECT_NO_THROW(LoadBalancer(m, {10}, 1));
  EXPECT_THROW(LoadBalancer(m, {10}, 2), Error);
}

TEST(TilingModel, TwoLbDimsOnBandit4d) {
  // A 4-dimensional simplex like the 2-arm bandit, balanced on two dims.
  spec::ProblemSpec s;
  s.name("b").params({"N"}).vars({"a", "b", "c", "d"});
  s.constraint("a >= 0").constraint("b >= 0");
  s.constraint("c >= 0").constraint("d >= 0");
  s.constraint("a + b + c + d <= N");
  s.dep("r1", {1, 0, 0, 0}).dep("r2", {0, 1, 0, 0});
  s.dep("r3", {0, 0, 1, 0}).dep("r4", {0, 0, 0, 1});
  s.load_balance({"a", "b"}).tile_widths({3, 3, 3, 3});
  s.center_code("V[loc] = 0.0;");
  TilingModel m(std::move(s));
  IntVec params{11};
  // C(11+4,4) = 1365 lattice points.
  EXPECT_EQ(m.total_cells(params), 1365);
  LoadBalancer lb(m, params, 4);
  Int total = 0;
  for (int r = 0; r < 4; ++r) total += lb.owned_work(r);
  EXPECT_EQ(total, 1365);
  EXPECT_EQ(m.lb_dims(), (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace dpgen::tiling
