#include "tiling/balance.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace dpgen::tiling {

LoadBalancer::LoadBalancer(const TilingModel& model, const IntVec& params,
                           int nranks, BalanceMethod method)
    : OwnerTable(model.lb_dims()) {
  DPGEN_CHECK(nranks <= 1 || !model.lb_dims().empty(),
              "multi-rank runs require load-balance dimensions in the spec");
  struct Cell {
    IntVec lb;
    Int work, tiles;
  };
  std::vector<Cell> cells;
  model.for_each_lb_cell(params, [&](const IntVec& lb) {
    cells.push_back({lb, model.cell_count_lb(params, lb),
                     model.tile_count_lb(params, lb)});
  });
  if (method == BalanceMethod::kHyperplane) {
    // Order by the all-ones hyperplane over the balanced dimensions, then
    // lexicographically; the prefix cut then slices along diagonal level
    // sets (Fig. 8).  kPerDimension keeps the natural lb1-major order.
    std::stable_sort(cells.begin(), cells.end(),
                     [](const Cell& a, const Cell& b) {
                       Int sa = std::accumulate(a.lb.begin(), a.lb.end(), Int{0});
                       Int sb = std::accumulate(b.lb.begin(), b.lb.end(), Int{0});
                       return sa != sb ? sa < sb : a.lb < b.lb;
                     });
  }
  for (const Cell& c : cells) add_cell(c.lb.data(), c.work, c.tiles);
  cut(nranks);
}

}  // namespace dpgen::tiling
