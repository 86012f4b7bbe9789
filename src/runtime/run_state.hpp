#pragma once
// The per-run state the runtime keeps behind run_program and launch: who
// owns each tile (OwnerTable, the load-balance cut) and what the run
// computed (ResultSink).  The engine, the tiling layer's LoadBalancer and
// the driver include this; generated programs never see it.  OwnerTable
// and ResultSink<double> are compiled once in dpgen_runtime (program.cpp);
// ResultSink's templates are defined in runtime/run_program.hpp.

#include <map>
#include <mutex>
#include <vector>

#include "runtime/program.hpp"

namespace dpgen::runtime {

/// The one tie-break rule of a tracked maximum: `value` at `point` beats
/// `best` when it is larger, or equal at a lexicographically smaller
/// point, so the MAX line is the same under any schedule.
template <typename S>
inline bool max_beats(S value, const Int* point, S best,
                      const Int* best_point, int dim) {
  if (value != best) return value > best;
  for (int k = 0; k < dim; ++k)
    if (point[k] != best_point[k]) return point[k] < best_point[k];
  return false;
}

/// A run's results, shared by every rank and worker: the probed values
/// and the tracked maximum.
template <typename S>
class ResultSink {
 public:
  explicit ResultSink(ProbeLayout layout);
  // Out of line, so a holder compiles none of the map and mutex teardown.
  ~ResultSink();

  /// Records every probe that falls in `tile` from its filled buffer.
  void record_probes(const IntVec& tile, const S* buffer);
  /// Merges a candidate maximum (a tile's best) under max_beats.
  void merge_max(S value, const Int* point, int dim);
  /// Prints "RESULT (coords) = value" per recorded probe in coordinate
  /// order, then "MAX (coords) = value" when a maximum was merged.
  void print() const;

  const std::map<IntVec, S>& values() const { return values_; }
  S max_value() const { return max_value_; }
  const IntVec& max_point() const { return max_point_; }

 private:
  ProbeLayout layout_;
  std::mutex mu_;
  std::map<IntVec, S> values_;
  bool have_max_ = false;
  S max_value_ = 0;
  IntVec max_point_;
};

/// The load-balance cut (paper IV.J) and the owner lookup it feeds.  Cells
/// (tiles grouped by their indices in the lb dimensions) are added in cut
/// order with their work (locations) and tile counts; cut() gives rank i
/// the cells whose preceding work lies in [i*W/P, (i+1)*W/P).  owner()
/// runs once per outgoing edge: it indexes a dense table over the cells'
/// bounding box, or binary searches the sorted cells when the box is too
/// sparse, and allocates nothing.  With no lb dimensions the one cell is
/// the whole space, on rank 0.
class OwnerTable : public CellSink {
 public:
  explicit OwnerTable(std::vector<int> lb_dims = {});
  OwnerTable(const OwnerTable&) = default;
  // Out of line, so a holder compiles none of the table's code.
  OwnerTable(OwnerTable&&) noexcept;
  OwnerTable& operator=(OwnerTable&&) noexcept;
  ~OwnerTable();

  /// Appends a cell: its coordinates over the lb dimensions, its work and
  /// its tile count.
  void add_cell(const Int* lb, Int work, Int tiles) override;
  /// Cuts the cells into `nranks` spans and builds the owner lookup.
  void cut(int nranks);
  /// Owning rank of an in-space tile; dpgen::Error for a tile in no cell.
  int owner(const IntVec& tile) const;

  int nranks() const { return static_cast<int>(work_.size()); }
  Int num_cells() const { return static_cast<Int>(cell_work_.size()); }
  Int total_work() const { return total_work_; }
  Int owned_work(int r) const { return work_[static_cast<std::size_t>(r)]; }
  Int owned_tiles(int r) const { return tiles_[static_cast<std::size_t>(r)]; }
  /// Largest-to-average work ratio: 1.0 is a perfect balance.
  double imbalance() const;

 private:
  const Int* cell(std::size_t c) const {
    return coords_.data() + c * lb_dims_.size();
  }

  std::vector<int> lb_dims_;
  std::vector<Int> coords_;  ///< lb_dims_.size() per cell
  std::vector<Int> cell_work_, cell_tiles_;
  std::vector<int> cell_rank_;
  Int total_work_ = 0;
  std::vector<Int> work_, tiles_;
  IntVec box_lo_, box_extent_;
  std::vector<int> box_;             ///< rank per box slot, -1 = hole
  std::vector<std::size_t> sorted_;  ///< cells by coordinates, sparse box
};

// Compiled once in dpgen_runtime (program.cpp).
extern template class ResultSink<double>;

}  // namespace dpgen::runtime
