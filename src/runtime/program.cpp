// The compiled half of runtime/program.hpp and runtime/run_state.hpp: the
// OwnerTable, probe_set, and the one copy of ResultSink<double> and
// run_program<double> that the engine and every double-precision
// generated program link.
#include "runtime/run_state.hpp"

#include <algorithm>
#include <numeric>

#include "runtime/run_program.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::runtime {

OwnerTable::OwnerTable(std::vector<int> lb_dims)
    : lb_dims_(std::move(lb_dims)) {}
OwnerTable::OwnerTable(OwnerTable&&) noexcept = default;
OwnerTable& OwnerTable::operator=(OwnerTable&&) noexcept = default;
OwnerTable::~OwnerTable() = default;

void OwnerTable::add_cell(const Int* lb, Int work, Int tiles) {
  coords_.insert(coords_.end(), lb, lb + lb_dims_.size());
  cell_work_.push_back(work);
  cell_tiles_.push_back(tiles);
  total_work_ = add_ck(total_work_, work);
}

void OwnerTable::cut(int nranks) {
  DPGEN_CHECK(nranks >= 1, "load balancer needs at least one rank");
  const std::size_t nd = lb_dims_.size(), n = cell_work_.size();
  work_.assign(static_cast<std::size_t>(nranks), 0);
  tiles_.assign(static_cast<std::size_t>(nranks), 0);
  cell_rank_.assign(n, 0);
  Int cum = 0;
  for (std::size_t c = 0; c < n; ++c) {
    // The cell whose preceding work is in [i*W/P, (i+1)*W/P) goes to i.
    if (total_work_ > 0)
      cell_rank_[c] = static_cast<int>(std::min<__int128>(
          nranks - 1, static_cast<__int128>(cum) * nranks / total_work_));
    work_[static_cast<std::size_t>(cell_rank_[c])] += cell_work_[c];
    tiles_[static_cast<std::size_t>(cell_rank_[c])] += cell_tiles_[c];
    cum = add_ck(cum, cell_work_[c]);
  }

  // The lookup: a dense table over the cells' bounding box, unless the box
  // is so much larger than the cell set that the memory is not worth it.
  box_.clear();
  sorted_.clear();
  if (n == 0) return;
  box_lo_.assign(cell(0), cell(0) + nd);
  IntVec hi = box_lo_;
  for (std::size_t c = 1; c < n; ++c)
    for (std::size_t i = 0; i < nd; ++i) {
      box_lo_[i] = std::min(box_lo_[i], cell(c)[i]);
      hi[i] = std::max(hi[i], cell(c)[i]);
    }
  box_extent_.assign(nd, 0);
  Int volume = 1;
  const Int dense_limit = std::max<Int>(4096, 8 * static_cast<Int>(n));
  for (std::size_t i = 0; i < nd && volume <= dense_limit; ++i) {
    box_extent_[i] = hi[i] - box_lo_[i] + 1;
    volume = mul_ck(volume, box_extent_[i]);
  }
  if (volume > dense_limit) {
    sorted_.resize(n);
    std::iota(sorted_.begin(), sorted_.end(), std::size_t{0});
    std::sort(sorted_.begin(), sorted_.end(),
              [&](std::size_t a, std::size_t b) {
                return std::lexicographical_compare(cell(a), cell(a) + nd,
                                                    cell(b), cell(b) + nd);
              });
    return;
  }
  box_.assign(static_cast<std::size_t>(volume), -1);
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t idx = 0;
    for (std::size_t i = 0; i < nd; ++i)
      idx = idx * static_cast<std::size_t>(box_extent_[i]) +
            static_cast<std::size_t>(cell(c)[i] - box_lo_[i]);
    box_[idx] = cell_rank_[c];
  }
}

int OwnerTable::owner(const IntVec& tile) const {
  const std::size_t nd = lb_dims_.size();
  auto coord = [&](std::size_t i) {
    return tile[static_cast<std::size_t>(lb_dims_[i])];
  };
  int rank = -1;
  if (!box_.empty()) {
    std::size_t idx = 0, i = 0;
    for (; i < nd; ++i) {
      const Int v = coord(i) - box_lo_[i];
      if (v < 0 || v >= box_extent_[i]) break;
      idx = idx * static_cast<std::size_t>(box_extent_[i]) +
            static_cast<std::size_t>(v);
    }
    if (i == nd) rank = box_[idx];
  } else {
    // Sparse box: binary search of the cells in coordinate order.
    auto cmp = [&](std::size_t c) {
      for (std::size_t i = 0; i < nd; ++i)
        if (cell(c)[i] != coord(i)) return cell(c)[i] < coord(i) ? -1 : 1;
      return 0;
    };
    const auto it =
        std::partition_point(sorted_.begin(), sorted_.end(),
                             [&](std::size_t c) { return cmp(c) < 0; });
    if (it != sorted_.end() && cmp(*it) == 0) rank = cell_rank_[*it];
  }
  DPGEN_CHECK(rank >= 0,
              cat("tile ", vec_to_string(tile),
                  " has no load-balance cell; is it in the tile space?"));
  return rank;
}

ProbeSet probe_set(const ProbeLayout& layout, int dim) {
  const auto d = static_cast<std::size_t>(dim);
  ProbeSet set{{},
               {layout.widths, layout.widths + d},
               {layout.strides, layout.strides + d},
               {layout.ghost_lo, layout.ghost_lo + d}};
  for (const Int* p = layout.points.begin(); p != layout.points.end(); p += d)
    set.points.emplace_back(p, p + d);
  return set;
}

double OwnerTable::imbalance() const {
  if (total_work_ == 0) return 1.0;
  const Int max_work = *std::max_element(work_.begin(), work_.end());
  return static_cast<double>(max_work) * nranks() /
         static_cast<double>(total_work_);
}

template class ResultSink<double>;
template int run_program<double>(const ProgramInfo<double>&, int, char**);

}  // namespace dpgen::runtime
