// Unit and property tests for the tiling model: extended/tile spaces, tile
// dependencies, ghost geometry and mapping functions, pack spaces, validity
// checks, initial-tile detection, the load balancer and the owner table
// under it (runtime::OwnerTable).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "problems/problems.hpp"
#include "runtime/run_state.hpp"
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

// ---- runtime::OwnerTable ----------------------------------------------------

/// Every packaged family at a size with a few dozen load-balance cells.
std::vector<std::pair<problems::Problem, IntVec>> packaged_families() {
  const std::vector<std::string> seqs2 = {problems::random_dna(20, 1),
                                          problems::random_dna(18, 2)};
  const std::vector<std::string> seqs3 = {"ACGTAC", "AGTCAG", "ACGGTA"};
  std::vector<std::pair<problems::Problem, IntVec>> out;
  out.emplace_back(problems::bandit2(2), IntVec{12});
  out.emplace_back(problems::bandit3(2), IntVec{6});
  out.emplace_back(problems::bandit2_delay(2), IntVec{8});
  out.emplace_back(problems::msa(seqs3, 2), problems::sequence_params(seqs3));
  out.emplace_back(problems::lcs(seqs2, 2), problems::sequence_params(seqs2));
  out.emplace_back(problems::edit_distance(seqs2[0], seqs2[1], 2),
                   problems::sequence_params(seqs2));
  out.emplace_back(
      problems::smith_waterman(seqs2[0], seqs2[1], 2.0, -1.0, -1.0, 2),
      problems::sequence_params(seqs2));
  out.emplace_back(problems::align_affine(seqs2[0], seqs2[1], 1.0, 3.0, 1.0, 2),
                   problems::sequence_params(seqs2));
  out.emplace_back(problems::coin_change({1, 5, 7}, 2), IntVec{40});
  out.emplace_back(problems::seam_carving(4), IntVec{20, 17});
  out.emplace_back(problems::trellis(4), IntVec{20, 17});
  out.emplace_back(problems::downhill(2, 4), IntVec{20, 17});
  return out;
}

TEST(OwnerTable, PrefixCutMatchesBruteForceOnEveryFamily) {
  // The table is fed the model's cells (in the order a BalanceMethod
  // gives); its per-rank work and tiles must equal a cut computed here
  // tile by tile: a cell belongs to the largest rank r with
  // r * total <= (work before the cell) * ranks.
  for (auto& [problem, params] : packaged_families()) {
    const TilingModel model(problem.spec);
    const std::string name = problem.spec.problem_name();
    for (BalanceMethod method :
         {BalanceMethod::kPerDimension, BalanceMethod::kHyperplane}) {
      std::vector<IntVec> cells;
      model.for_each_lb_cell(params,
                             [&](const IntVec& lb) { cells.push_back(lb); });
      EXPECT_GE(cells.size(), 8u) << name;
      if (method == BalanceMethod::kHyperplane)
        std::stable_sort(cells.begin(), cells.end(),
                         [](const IntVec& a, const IntVec& b) {
                           const Int sa = std::accumulate(a.begin(), a.end(), Int{0});
                           const Int sb = std::accumulate(b.begin(), b.end(), Int{0});
                           return sa != sb ? sa < sb : a < b;
                         });
      // Per-cell work and tiles from a scan of every tile.
      std::map<IntVec, std::pair<Int, Int>> per_cell;
      model.for_each_tile(params, [&](const IntVec& t) {
        IntVec lb;
        for (int k : model.lb_dims()) lb.push_back(t[static_cast<std::size_t>(k)]);
        per_cell[lb].first += model.cell_count(params, t);
        per_cell[lb].second += 1;
      });
      Int total = 0;
      for (const auto& [lb, wt] : per_cell) total += wt.first;
      for (int ranks = 1; ranks <= 8; ++ranks) {
        runtime::OwnerTable table(model.lb_dims());
        for (const IntVec& lb : cells)
          table.add_cell(lb.data(), model.cell_count_lb(params, lb),
                         model.tile_count_lb(params, lb));
        table.cut(ranks);
        std::vector<Int> work(static_cast<std::size_t>(ranks), 0);
        std::vector<Int> tiles(static_cast<std::size_t>(ranks), 0);
        std::map<IntVec, int> rank_of;
        Int before = 0;
        for (const IntVec& lb : cells) {
          int rank = 0;
          while (rank + 1 < ranks && (rank + 1) * total <= before * ranks)
            ++rank;
          rank_of[lb] = rank;
          work[static_cast<std::size_t>(rank)] += per_cell[lb].first;
          tiles[static_cast<std::size_t>(rank)] += per_cell[lb].second;
          before += per_cell[lb].first;
        }
        const LoadBalancer balancer(model, params, ranks, method);
        for (int r = 0; r < ranks; ++r) {
          EXPECT_EQ(table.owned_work(r), work[static_cast<std::size_t>(r)])
              << name << " rank " << r << "/" << ranks;
          EXPECT_EQ(table.owned_tiles(r), tiles[static_cast<std::size_t>(r)])
              << name << " rank " << r << "/" << ranks;
          EXPECT_EQ(balancer.owned_work(r), table.owned_work(r)) << name;
        }
        EXPECT_EQ(table.total_work(), total) << name;
        model.for_each_tile(params, [&](const IntVec& t) {
          IntVec lb;
          for (int k : model.lb_dims())
            lb.push_back(t[static_cast<std::size_t>(k)]);
          ASSERT_EQ(table.owner(t), rank_of[lb]) << name << " "
                                                 << vec_to_string(t);
        });
      }
    }
  }
}

TEST(OwnerTable, HolesAndOutsideTilesRaise) {
  // bandit2's (s1, f1) cells fill a triangle, so the dense box has holes.
  const TilingModel model(problems::bandit2(2).spec);
  const LoadBalancer balancer(model, {12}, 3);
  EXPECT_NO_THROW(balancer.owner({0, 0, 0, 0}));
  EXPECT_NO_THROW(balancer.owner({6, 0, 0, 0}));
  EXPECT_THROW(balancer.owner({6, 6, 0, 0}), Error);   // hole in the box
  EXPECT_THROW(balancer.owner({-1, 0, 0, 0}), Error);  // below the box
  EXPECT_THROW(balancer.owner({0, 99, 0, 0}), Error);  // above it

  // Two cells far apart: the box is too sparse, so lookups binary search.
  runtime::OwnerTable sparse({0});
  for (Int x : {Int{0}, Int{5}, Int{1000000}}) sparse.add_cell(&x, 1, 1);
  sparse.cut(2);
  EXPECT_EQ(sparse.owner({0}), 0);
  EXPECT_EQ(sparse.owner({5}), 0);
  EXPECT_EQ(sparse.owner({1000000}), 1);
  EXPECT_THROW(sparse.owner({4}), Error);
  EXPECT_THROW(sparse.owner({-3}), Error);
  EXPECT_THROW(sparse.owner({2000000}), Error);

  // No lb dimensions: one cell, the whole space, on rank 0 of any cut.
  runtime::OwnerTable whole;
  whole.add_cell(nullptr, 10, 4);
  whole.cut(3);
  EXPECT_EQ(whole.owner({7, 8}), 0);
  EXPECT_EQ(whole.owned_tiles(0), 4);
  EXPECT_EQ(whole.owned_work(2), 0);
  EXPECT_THROW(whole.cut(0), Error);
}

}  // namespace
}  // namespace dpgen::tiling
