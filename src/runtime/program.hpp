#pragma once
// The pre-written half of every generated program (paper section V): a
// program emits only problem geometry (its ProblemHooks, the load-balance
// cell scan, a ProgramInfo) and a one-line main calling run_program.  The
// OwnerTable, ResultSink<double> and run_program<double> are compiled once
// into dpgen_runtime (program.cpp), so a double program compiles only this
// header and its own code; a program of another scalar type also includes
// runtime/run_program.hpp, which defines the templates.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/vec.hpp"

namespace dpgen::runtime {

/// The problem-specific interface the driver runs against.  All methods
/// must be safe to call from multiple worker threads concurrently.
template <typename S>
class ProblemHooks {
 public:
  virtual ~ProblemHooks() = default;

  /// Number of tile dimensions.
  virtual int dim() const = 0;
  /// Scalars in one tile buffer (interior + ghost ring).
  virtual Int buffer_size() const = 0;

  /// Tile edges (distinct tile-dependency offsets).
  virtual int num_edges() const = 0;
  virtual const IntVec& edge_offset(int edge) const = 0;
  /// Upper bound on the scalars `edge` can carry (any producer tile); the
  /// driver sizes pack destinations with it before calling pack().
  virtual Int edge_capacity(int edge) const = 0;

  /// True when the tile exists (is inside the tile space).
  virtual bool tile_exists(const IntVec& tile) const = 0;
  /// Number of in-space dependencies of an existing tile.
  virtual int dep_count(const IntVec& tile) const = 0;
  /// Appends every dependency-free tile (across all ranks) to out.
  virtual void initial_tiles(std::vector<IntVec>& out) const = 0;

  /// Owning rank of a tile and the number of tiles a rank owns.
  virtual int owner(const IntVec& tile) const = 0;
  virtual Int owned_tiles(int rank) const = 0;

  /// Cell count of a tile (Ehrhart-exact where available; 0 = unknown).
  /// Only consulted when live monitoring is on: the straggler detector
  /// prefers cells over tile counts because tile costs are heavy-tailed.
  virtual Int tile_cells(const IntVec& tile) const {
    (void)tile;
    return 0;
  }

  /// Runs the tile's loop nest over `buffer` (ghosts already unpacked).
  virtual void execute_tile(const IntVec& tile, S* buffer) = 0;
  /// Called after execution with the filled buffer (result capture).
  virtual void on_tile_executed(const IntVec& tile, const S* buffer) {
    (void)tile;
    (void)buffer;
  }

  /// Packs the producer-side cells of `edge` from `buffer` into `out`
  /// (room for at least edge_capacity(edge) scalars); returns the number
  /// of scalars packed.
  virtual Int pack(int edge, const IntVec& producer, const S* buffer,
                   S* out) const = 0;
  /// Unpacks edge data into the consumer tile's buffer ghost cells;
  /// `producer` identifies the tile the data came from.
  virtual void unpack(int edge, const IntVec& producer, const S* data,
                      Int count, S* buffer) const = 0;
};

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

/// Probed locations and where they sit in a tile buffer: global point x
/// of tile t is at sum_k strides[k] * (x[k] - widths[k]*t[k] + ghost_lo[k]).
struct ProbeLayout {
  std::vector<IntVec> probes;
  IntVec widths, strides, ghost_lo;
};

/// A run's results, shared by every rank and worker: the probed values
/// and the tracked maximum.  Defined in runtime/run_program.hpp.
template <typename S>
class ResultSink {
 public:
  explicit ResultSink(ProbeLayout layout);

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
class OwnerTable {
 public:
  explicit OwnerTable(std::vector<int> lb_dims = {});
  OwnerTable(const OwnerTable&) = default;
  // Out of line, so a program holding a table compiles none of its code.
  OwnerTable(OwnerTable&&) noexcept;
  ~OwnerTable();

  /// Appends a cell: its coordinates over the lb dimensions, its work and
  /// its tile count.
  void add_cell(const Int* lb, Int work, Int tiles);
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

/// What a generated program hands run_program: labels, geometry and its
/// problem-specific functions, which take the parameters as an array.
template <typename S>
struct ProgramInfo {
  std::string name;
  std::vector<std::string> params;  ///< names, for the usage line
  std::vector<int> priority_dims, dep_signs;  ///< the TileOrder
  std::vector<int> lb_dims;
  std::vector<std::string> passes;  ///< codegen passes, for the report
  /// Set by --passes=none|full when the program has loop passes (null =
  /// none); `none` leaves only the layout pass in the report.
  bool* loop_passes = nullptr;
  ProbeLayout probes;
  /// Adds the load-balance cells to `cells` in lb1-major order.
  void (*scan_cells)(const long long* params, OwnerTable& cells) = nullptr;
  std::unique_ptr<ProblemHooks<S>> (*make_hooks)(
      const long long* params, OwnerTable owners,
      ResultSink<S>& sink) = nullptr;
  void (*init)(const long long* params) = nullptr;  ///< spec init, or null
  long long (*total_work)(const long long* params) = nullptr;
};

/// The generated program's main: parses `<params...> [flags]`, runs the
/// launcher and prints the RESULT, MAX and STATS lines and the launcher's
/// summary.  The usage line and every error ("dpgen: error: ...") exit 2.
template <typename S>
int run_program(const ProgramInfo<S>& info, int argc, char** argv);

// Compiled once in dpgen_runtime (program.cpp).
extern template class ResultSink<double>;
extern template int run_program<double>(const ProgramInfo<double>&, int,
                                        char**);

}  // namespace dpgen::runtime
