#pragma once
// The pre-written half of every generated program (paper section V), as
// the program sees it: the hooks it implements, the plain data it hands
// over, and run_program, its one-line main.  Everything else (the
// load-balance cut, the result sink, the launcher and the driver) lives
// behind run_program in dpgen_runtime, so this header includes only
// <cstdint> and <vector>.  run_program<double> is compiled once in
// dpgen_runtime (program.cpp); a program of another scalar type also
// includes runtime/run_program.hpp, which defines the templates.

#include "support/int.hpp"

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
  /// Appends every dependency-free tile (across all ranks), possibly more
  /// than once; the driver drops the repeats.
  virtual void initial_tiles(std::vector<IntVec>& out) const = 0;

  /// Cell count of a tile (Ehrhart-exact where available; 0 = unknown).
  /// Only consulted when live monitoring is on: the straggler detector
  /// prefers cells over tile counts because tile costs are heavy-tailed.
  virtual Int tile_cells(const IntVec& tile) const {
    (void)tile;
    return 0;
  }

  /// Runs the tile's loop nest over `buffer` (ghosts already unpacked).
  virtual void execute_tile(const IntVec& tile, S* buffer) = 0;
  /// Called after execution with the filled buffer.
  virtual void on_tile_executed(const IntVec& tile, const S* buffer) {
    (void)tile;
    (void)buffer;
  }
  /// For a tracked maximum: the tile's largest value and its global point
  /// (dim() coordinates; of equal values, the lexicographically smallest).
  /// False when the problem tracks no maximum.
  virtual bool tile_max(const IntVec& tile, const S* buffer, S& value,
                        Int* point) const {
    (void)tile;
    (void)buffer;
    (void)value;
    (void)point;
    return false;
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

/// Receives a program's load-balance cells (paper IV.J): coordinates over
/// the lb dimensions, work (locations) and tile count.
class CellSink {
 public:
  virtual void add_cell(const Int* lb, Int work, Int tiles) = 0;

 protected:
  ~CellSink() = default;
};

/// Probed locations and where they sit in a tile buffer: global point x
/// of tile t is at sum_k strides[k] * (x[k] - widths[k]*t[k] + ghost_lo[k]).
struct ProbeLayout {
  std::vector<IntVec> probes;
  IntVec widths, strides, ghost_lo;
};

/// What a generated program hands run_program: labels, geometry and its
/// problem-specific functions, which take the parameters as an array.
template <typename S>
struct ProgramInfo {
  const char* name = "";
  std::vector<const char*> params;  ///< names, for the usage line
  std::vector<int> priority_dims, dep_signs;  ///< the TileOrder
  std::vector<int> lb_dims;
  std::vector<const char*> passes;  ///< codegen passes, for the report
  /// Set by --passes=none|full when the program has loop passes (null =
  /// none); `none` leaves only the layout pass in the report.
  bool* loop_passes = nullptr;
  ProbeLayout probes;
  /// Reports the load-balance cells in lb1-major order.
  void (*scan_cells)(const long long* params, CellSink& cells) = nullptr;
  /// A new hooks object, owned by the caller.
  ProblemHooks<S>* (*make_hooks)(const long long* params) = nullptr;
  void (*init)(const long long* params) = nullptr;  ///< spec init, or null
  long long (*total_work)(const long long* params) = nullptr;
};

/// The generated program's main: parses `<params...> [flags]`, runs the
/// launcher and prints the RESULT, MAX and STATS lines and the launcher's
/// summary.  The usage line and every error ("dpgen: error: ...") exit 2.
template <typename S>
int run_program(const ProgramInfo<S>& info, int argc, char** argv);

// Compiled once in dpgen_runtime (program.cpp).
extern template int run_program<double>(const ProgramInfo<double>&, int,
                                        char**);

}  // namespace dpgen::runtime
