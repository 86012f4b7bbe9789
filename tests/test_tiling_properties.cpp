// Tiling-model invariants checked across every packaged problem and
// several tile widths (parameterized property sweeps): counting
// consistency, edge/pack agreement, dependency symmetry, initial tiles,
// ghost-geometry bounds and mapping-function injectivity.

#include <gtest/gtest.h>

#include <set>

#include "problems/problems.hpp"
#include "tiling/model.hpp"

namespace dpgen::tiling {
namespace {

struct Workload {
  std::string name;
  spec::ProblemSpec spec;
  IntVec params;
};

std::vector<Workload> workloads(Int width) {
  std::vector<Workload> out;
  out.push_back({"bandit2", problems::bandit2(width).spec, {9}});
  out.push_back({"bandit2_delay", problems::bandit2_delay(width).spec, {6}});
  auto seqs = std::vector<std::string>{problems::random_dna(7, 1),
                                       problems::random_dna(8, 2)};
  out.push_back(
      {"msa2", problems::msa(seqs, width).spec, problems::sequence_params(seqs)});
  out.push_back({"coins", problems::coin_change({1, 5}, width).spec, {23}});
  out.push_back({"affine",
                 problems::align_affine("ACGTA", "AGTC", 1, 3, 1, width).spec,
                 problems::sequence_params({"ACGTA", "AGTC"})});
  return out;
}

class TilingInvariants : public ::testing::TestWithParam<Int> {};

TEST_P(TilingInvariants, CellCountsPartitionTheSpace) {
  for (auto& w : workloads(GetParam())) {
    TilingModel m(std::move(w.spec));
    Int sum = 0;
    std::set<IntVec> cells;
    m.for_each_tile(w.params, [&](const IntVec& t) {
      sum += m.cell_count(w.params, t);
      m.for_each_cell(w.params, t,
                      [&](const IntVec&, const IntVec& global) {
                        EXPECT_TRUE(cells.insert(global).second)
                            << w.name << ": cell visited twice";
                      });
    });
    EXPECT_EQ(sum, m.total_cells(w.params)) << w.name;
    EXPECT_EQ(static_cast<Int>(cells.size()), m.total_cells(w.params))
        << w.name;
  }
}

TEST_P(TilingInvariants, DependencyGraphIsConsistent) {
  for (auto& w : workloads(GetParam())) {
    TilingModel m(std::move(w.spec));
    m.for_each_tile(w.params, [&](const IntVec& t) {
      for (int e : m.deps_of(w.params, t)) {
        IntVec producer =
            vec_add(t, m.edges()[static_cast<std::size_t>(e)].offset);
        // The producer must exist, and the producer's consumer (t) too.
        EXPECT_TRUE(m.tile_in_space(w.params, producer)) << w.name;
      }
    });
  }
}

TEST_P(TilingInvariants, PackCountsNeverExceedCapacity) {
  for (auto& w : workloads(GetParam())) {
    TilingModel m(std::move(w.spec));
    m.for_each_tile(w.params, [&](const IntVec& t) {
      for (int e = 0; e < m.num_edges(); ++e) {
        Int n = 0;
        m.for_each_pack_cell(w.params, t, e, [&](const IntVec& j) {
          ++n;
          // Pack cells lie inside the producer's interior.
          for (std::size_t k = 0; k < j.size(); ++k) {
            EXPECT_GE(j[k], 0);
            EXPECT_LT(j[k], m.problem().widths()[k]);
          }
        });
        EXPECT_LE(n, m.edges()[static_cast<std::size_t>(e)].capacity)
            << w.name;
      }
    });
  }
}

TEST_P(TilingInvariants, MappingFunctionIsInjectiveOverBuffer) {
  for (auto& w : workloads(GetParam())) {
    TilingModel m(std::move(w.spec));
    // Interior + ghost coordinates map to distinct in-range indices.
    std::set<Int> seen;
    std::function<void(IntVec&, int)> rec = [&](IntVec& coord, int k) {
      if (k == m.dim()) {
        Int idx = m.local_index(coord);
        EXPECT_GE(idx, 0) << w.name;
        EXPECT_LT(idx, m.buffer_size()) << w.name;
        EXPECT_TRUE(seen.insert(idx).second) << w.name;
        return;
      }
      auto ks = static_cast<std::size_t>(k);
      for (Int i = -m.ghost_lo()[ks];
           i <= m.problem().widths()[ks] - 1 + m.ghost_hi()[ks]; ++i) {
        coord[ks] = i;
        rec(coord, k + 1);
      }
    };
    IntVec coord(static_cast<std::size_t>(m.dim()), 0);
    rec(coord, 0);
    EXPECT_EQ(static_cast<Int>(seen.size()), m.buffer_size()) << w.name;
  }
}

TEST_P(TilingInvariants, InitialTilesMatchBruteForce) {
  for (auto& w : workloads(GetParam())) {
    TilingModel m(std::move(w.spec));
    std::set<IntVec> expected;
    m.for_each_tile(w.params, [&](const IntVec& t) {
      if (m.deps_of(w.params, t).empty()) expected.insert(t);
    });
    std::set<IntVec> got;
    m.for_each_initial_tile(w.params,
                            [&](const IntVec& t) { got.insert(t); });
    EXPECT_EQ(got, expected) << w.name;
  }
}

TEST_P(TilingInvariants, FullTilesAreExactlyTheFullBoxes) {
  for (auto& w : workloads(GetParam())) {
    TilingModel m(std::move(w.spec));
    Int box = 1;
    for (Int width : m.problem().widths()) box *= width;
    int full = 0;
    m.for_each_tile(w.params, [&](const IntVec& t) {
      const bool is_full = m.tile_full(w.params, t);
      EXPECT_EQ(is_full, m.cell_count(w.params, t) == box)
          << w.name << " tile " << vec_to_string(t);
      full += is_full;
    });
    // Width 1 makes every tile one full cell.
    if (GetParam() == 1) {
      EXPECT_GT(full, 0) << w.name;
    }
  }
}

TEST_P(TilingInvariants, WholeBoxChecksMatchBruteForce) {
  for (auto& w : workloads(GetParam())) {
    TilingModel m(std::move(w.spec));
    const int ndeps = static_cast<int>(m.problem().deps().size());
    m.for_each_tile(w.params, [&](const IntVec& t) {
      bool all_valid = true;
      m.for_each_cell(w.params, t, [&](const IntVec&, const IntVec& x) {
        IntVec pt = w.params;
        pt.insert(pt.end(), x.begin(), x.end());
        for (int j = 0; j < ndeps; ++j) all_valid &= m.dep_valid_at(pt, j);
      });
      const bool hold = m.tile_checks_hold(w.params, t);
      // The box test is exact on a full tile (its cells are the box) and
      // never claims more than the cells show on a partial one.
      if (m.tile_full(w.params, t)) {
        EXPECT_EQ(hold, all_valid) << w.name << " tile " << vec_to_string(t);
      } else if (hold) {
        EXPECT_TRUE(all_valid) << w.name << " tile " << vec_to_string(t);
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, TilingInvariants,
                         ::testing::Values<Int>(1, 2, 3, 5),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dpgen::tiling
