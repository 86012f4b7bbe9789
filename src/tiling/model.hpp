#pragma once
// The tiling model (paper sections IV.E - IV.I, IV.K, IV.L).
//
// From a validated ProblemSpec, TilingModel derives every compile-time
// artifact of the generation process:
//   * the extended system of linear inequalities linking original loop
//     variables x_k to tile indices t_k and local indices i_k through
//     x_k = i_k + w_k * t_k,
//   * the tile space (FM projection onto parameters + tile indices),
//   * tile dependency offsets derived from the template vectors,
//   * ghost-cell geometry, buffer strides and the constant mapping-function
//     offsets (loc, loc_r1, ...),
//   * per-dependency validity checks (is_valid_r1, ...), lifted to the
//     extended variables so both executors split tile rows on them,
//   * pack/unpack iteration spaces for every tile edge,
//   * the face systems used to find the initial (dependency-free) tiles.
//
// The same model drives both the interpreted engine (direct execution) and
// the code generator (emitted C++), so generated programs and engine runs
// share one definition of the schedule.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "poly/count.hpp"
#include "poly/loopnest.hpp"
#include "spec/problem_spec.hpp"

namespace dpgen::tiling {

/// One runtime validity check for a dependency: the original-space
/// constraint shifted by the template vector.  `expr` is over the original
/// space variables (params, x); the dependency access is valid only when
/// every check's expr evaluates >= 0 (Ge) or == 0 (Eq).  `ext` is the same
/// form lifted to the extended variables (x_k = i_k + w_k t_k), which is
/// what both executors evaluate: along one row of a tile it is
/// base + inner_coef * i, with i the innermost local index.
struct ValidityCheck {
  poly::LinExpr expr;
  poly::Rel rel = poly::Rel::Ge;
  poly::LinExpr ext;
  Int inner_coef = 0;  ///< coefficient of the innermost local variable
};

/// One row of a tile's local scan: the innermost loop at fixed outer local
/// indices (TilingModel::for_each_row).  Cell i of the row (lo <= i <= hi,
/// i the innermost local index) sits at buffer index loc + i and has
/// original coordinates (x[0], ..., x[d-2], x_inner + i).  The row splits
/// into head [lo, sa-1], interior [sa, sb] and tail [sb+1, hi], an exact
/// partition even when the interior is empty: on the interior every Ge
/// check with a nonzero inner coefficient holds, so only the row-invariant
/// checks and the row-varying equalities decide validity there.
struct CellRow {
  Int loc = 0;
  const Int* x = nullptr;  ///< the d-1 outer original coordinates
  Int x_inner = 0;         ///< w_{d-1} * t_{d-1}
  Int lo = 0, hi = 0;
  Int sa = 0, sb = 0;
  /// Per validity check (TilingModel::validity_checks() order): its ext
  /// form evaluated on this row at i = 0.
  const Int* check_base = nullptr;
  bool ascending = true;  ///< scan direction of the innermost level

  /// Writes the original coordinates of cell i into `out` (size d).
  void point(Int i, IntVec& out) const {
    std::copy(x, x + (out.size() - 1), out.begin());
    out.back() = x_inner + i;
  }
};

/// One tile edge: data flowing from producer tile q to consumer tile
/// q - offset (the consumer reads across its +offset boundary).
struct Edge {
  IntVec offset;               // the tile-dependency offset (delta)
  std::vector<int> deps;       // template-dependency indices crossing it
  IntVec box_lo, box_hi;       // producer-local slab bounds per dimension
  Int capacity = 0;            // product of slab extents (upper bound)
};

/// Per-run specialisation of cell_count for per-tile hot paths (the live
/// monitor credits a tile's cells at every dispatch).  When the local
/// (cell) nest is separable — every local variable's bounds mention only
/// the parameters and its own dimension's tile index — the cell count of
/// tile t factors into a product of per-dimension extents, each a min/max
/// of affine forms (a * t_k + c) / div with the parameters folded into c
/// at construction.  count() then costs a handful of integer ops.  ok()
/// is false for non-separable models (e.g. triangular local spaces);
/// callers fall back to TilingModel::cell_count().
class CellCountFn {
 public:
  CellCountFn() = default;

  bool ok() const { return ok_; }

  /// Cells of tile `tile` (tile.size() == model dim).  Valid only when
  /// ok(); agrees exactly with TilingModel::cell_count at the params this
  /// evaluator was built for.
  Int count(const IntVec& tile) const;

 private:
  friend class TilingModel;

  /// One tile-dependent bound on the local extent of a dimension,
  /// specialised to the run's parameters.  div == 1 bounds are
  /// pre-normalised (lowers negated) so the bound value is a*t + c with no
  /// division; div > 1 keeps the rounding form
  ///   lower:  ceil((-(a*t + c)) / div)    upper:  floor((a*t + c) / div).
  struct Affine {
    Int a = 0;
    Int c = 0;
    Int div = 1;
    bool lower = false;
  };
  struct Dim {
    // Constant bounds folded at build time (limits when none exist).
    Int lo0 = 0;
    Int hi0 = 0;
    std::vector<Affine> bounds;  // tile-dependent bounds only (a != 0)
  };

  std::vector<Dim> dims_;  // indexed by tile dimension
  bool ok_ = false;
};

class TilingModel {
 public:
  /// Builds the model; validates the spec first.
  explicit TilingModel(spec::ProblemSpec problem);

  const spec::ProblemSpec& problem() const { return spec_; }
  int dim() const { return d_; }
  int nparams() const { return p_; }

  // ---- variable tables ----------------------------------------------------
  /// Extended variables: params, then tile indices, then local indices.
  const poly::Vars& ext_vars() const { return ext_vars_; }
  int ext_param(int i) const { return i; }
  int ext_tile(int k) const { return p_ + k; }
  int ext_local(int k) const { return p_ + d_ + k; }

  const poly::System& extended() const { return extended_; }
  /// Appends the local box lo_k <= i_k <= hi_k to `sys` (over ext_vars()).
  void add_local_box(poly::System& sys, const IntVec& lo,
                     const IntVec& hi) const;
  const poly::System& tile_space() const { return tile_space_; }

  // ---- tiles ----------------------------------------------------------------
  /// True when tile t exists for the given parameter values.  This is THE
  /// tile-existence criterion used consistently by dependency counting,
  /// ownership and discovery.
  bool tile_in_space(const IntVec& params, const IntVec& tile) const;

  /// Invokes fn(t) for every tile, scanned in tile-index order.
  void for_each_tile(const IntVec& params,
                     const std::function<void(const IntVec&)>& fn) const;

  /// Total number of tiles (including tiles whose local space is empty).
  Int total_tiles(const IntVec& params) const;

  /// Total number of locations (lattice points of the iteration space).
  Int total_cells(const IntVec& params) const;

  // ---- dependencies --------------------------------------------------------
  /// All distinct nonzero tile-dependency offsets (paper IV.F).
  const std::vector<Edge>& edges() const { return edges_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Offsets delta such that tile t depends on tile t + delta (i.e. both are
  /// in the tile space).  Returns edge indices.
  std::vector<int> deps_of(const IntVec& params, const IntVec& tile) const;

  /// Number of in-space dependencies of `tile` — deps_of(...).size() without
  /// materialising the index list (the runtime hot path only needs the
  /// count, once per tile, and must not allocate).
  int num_deps_of(const IntVec& params, const IntVec& tile) const;

  // ---- geometry (paper IV.H) -------------------------------------------------
  const IntVec& ghost_lo() const { return ghost_lo_; }
  const IntVec& ghost_hi() const { return ghost_hi_; }
  /// Tile buffer extent per dimension: w_k + ghost_lo_k + ghost_hi_k.
  const IntVec& buffer_extents() const { return extents_; }
  const IntVec& strides() const { return strides_; }
  Int buffer_size() const { return buffer_size_; }

  /// Constant term of the mapping function: the buffer index of local
  /// coordinate 0 (sum_k strides_k * ghost_lo_k).  Every loc expression is
  /// this constant plus the stride-weighted local coordinates.
  Int ghost_base() const {
    Int base = 0;
    for (std::size_t k = 0; k < strides_.size(); ++k)
      base = add_ck(base, mul_ck(strides_[k], ghost_lo_[k]));
    return base;
  }

  /// Linear index of local coordinate i (interior: 0 <= i_k < w_k; ghost
  /// coordinates extend to [-ghost_lo_k, w_k - 1 + ghost_hi_k]).
  Int local_index(const IntVec& local) const;

  /// Constant offset added to `loc` to reach dependency j (loc_rj).
  Int dep_loc_offset(int dep) const { return dep_offsets_[static_cast<std::size_t>(dep)]; }

  /// Global coordinate of local cell i in tile t: x_k = i_k + w_k t_k.
  IntVec global_of(const IntVec& tile, const IntVec& local) const;

  // ---- local iteration (paper IV.L) -----------------------------------------
  /// Scans the cells of tile t in loop order, one point of the local nest
  /// at a time; fn receives the local coordinate (interior only) and the
  /// global coordinate.  The reference scan: executors use for_each_row.
  void for_each_cell(
      const IntVec& params, const IntVec& tile,
      const std::function<void(const IntVec& local, const IntVec& global)>& fn)
      const;

  /// Scans the non-empty rows of tile t in loop order, calling fn(const
  /// CellRow&) once per row; visiting each row's cells from lo to hi
  /// (ascending) or hi to lo reproduces for_each_cell's order.  The outer
  /// levels are walked once per row and the row's check bases and
  /// interior split are computed once, which is what lets the interpreter
  /// strength-reduce its per-cell work like the generated centre loop.  A
  /// template over per-thread scratch: allocation-free in steady state.
  template <typename Fn>
  void for_each_row(const IntVec& params, const IntVec& tile, Fn&& fn) const {
    thread_local IntVec pt;
    thread_local IntVec x;
    thread_local std::vector<Int> base;
    ext_seed_into(params, pt);
    for (int k = 0; k < d_; ++k)
      pt[static_cast<std::size_t>(ext_tile(k))] =
          tile[static_cast<std::size_t>(k)];
    x.assign(static_cast<std::size_t>(d_), 0);
    base.assign(checks_.size(), 0);
    const int last = d_ - 1;
    CellRow row;
    row.x = x.data();
    row.check_base = base.data();
    row.x_inner = mul_ck(spec_.widths()[static_cast<std::size_t>(last)],
                         tile[static_cast<std::size_t>(last)]);
    row.ascending = local_nest_.dir(last) >= 0;
    auto rec = [&](auto&& self, int level, Int loc) -> void {
      auto [lo, hi] = local_nest_.range(level, pt);
      if (level == last) {
        if (lo > hi) return;
        row.loc = loc;
        row.lo = lo;
        row.hi = hi;
        split_row(pt, base, row);
        fn(static_cast<const CellRow&>(row));
        return;
      }
      const auto ks = static_cast<std::size_t>(level);
      const auto v = static_cast<std::size_t>(ext_local(level));
      const Int xt = mul_ck(spec_.widths()[ks], tile[ks]);
      auto step = [&](Int i) {
        pt[v] = i;
        x[ks] = add_ck(xt, i);
        self(self, level + 1, add_ck(loc, mul_ck(strides_[ks], i)));
      };
      if (local_nest_.dir(level) >= 0) {
        for (Int i = lo; i <= hi; ++i) step(i);
      } else {
        for (Int i = hi; i >= lo; --i) step(i);
      }
    };
    rec(rec, 0, ghost_base());
  }

  /// Number of cells in tile t (the tile's work).
  Int cell_count(const IntVec& params, const IntVec& tile) const;

  /// Builds the specialised per-tile cell counter for these parameter
  /// values (see CellCountFn).  The result's ok() is false when the local
  /// nest is not separable; callers then fall back to cell_count().
  CellCountFn cell_count_fn(const IntVec& params) const;

  /// Work of all tiles whose load-balanced indices match `lb_values`
  /// (the paper's second Ehrhart polynomial, evaluated exactly): a scan of
  /// the cell's tiles that counts a full tile as prod_k w_k and a partial
  /// one with cell_count().
  Int cell_count_lb(const IntVec& params, const IntVec& lb_values) const;

  /// Tile count with load-balanced indices fixed (used for per-rank
  /// owned-tile totals).
  Int tile_count_lb(const IntVec& params, const IntVec& lb_values) const;

  // ---- validity (paper IV.G) ---------------------------------------------------
  /// Every distinct validity check, deduplicated across dependencies and
  /// numbered in first-encounter (dependency, check) order — the numbering
  /// of the generated program's shared dp_chk_<n> flags.
  const std::vector<ValidityCheck>& validity_checks() const { return checks_; }
  /// Indices into validity_checks() of dependency j's checks.
  const std::vector<int>& dep_checks(int dep) const {
    return dep_checks_[static_cast<std::size_t>(dep)];
  }
  /// True when x + r_j is inside the iteration space; `orig_point` is the
  /// full original-space assignment (params then x).  The per-point
  /// reference for the row-split checks (and the serial executor's test).
  bool dep_valid_at(const IntVec& orig_point, int dep) const;

  // ---- full/partial tile separation ------------------------------------------
  /// True when tile t's whole local box 0 <= i_k <= w_k - 1 lies in the
  /// iteration space, i.e. cell_count(params, t) == prod_k w_k.  On such a
  /// tile every local and pack bound is a constant.
  bool tile_full(const IntVec& params, const IntVec& tile) const {
    return contains_tile(full_test_, params, tile);
  }
  /// True when every validity check holds on every cell of tile t's local
  /// box; on a full tile, exactly when every dependency is valid at every
  /// cell.
  bool tile_checks_hold(const IntVec& params, const IntVec& tile) const {
    return contains_tile(checks_test_, params, tile);
  }
  /// The systems behind tile_full / tile_checks_hold, over ext_vars() with
  /// no local terms: each constraint of extended() (resp. each validity
  /// check's ext form) minimised over the local box.  known_infeasible()
  /// when an equality varies over the box, so no tile passes.
  const poly::System& full_tile_test() const { return full_test_; }
  const poly::System& checks_hold_test() const { return checks_test_; }

  // ---- packing (paper IV.I) ------------------------------------------------------
  /// Scans the producer-local cells of edge e for producer tile q, in the
  /// canonical (pack == unpack) order.  fn receives the producer-local
  /// coordinate j; the consumer-side ghost coordinate is j + w*delta.
  void for_each_pack_cell(const IntVec& params, const IntVec& producer,
                          int edge,
                          const std::function<void(const IntVec&)>& fn) const;

  /// Constant buffer-index shift from a producer-local pack cell to the
  /// consumer-side ghost cell of edge e: sum_k strides_k * w_k * delta_k
  /// (local_index(j + w*delta) == local_index(j) + shift).
  Int edge_unpack_shift(int edge) const {
    return unpack_shifts_[static_cast<std::size_t>(edge)];
  }

  /// True when the innermost bounds of edge e's pack nest do not mention
  /// the next-outer scan variable, so for_each_pack_run evaluates the
  /// innermost range once per next-outer loop instead of once per run.
  bool edge_pack_hoisted(int edge) const {
    return pack_hoisted_[static_cast<std::size_t>(edge)];
  }

  /// Scans the producer-local cells of edge e as maximal contiguous runs
  /// along the innermost buffer dimension.  The pack nest iterates locals
  /// ascending with the innermost level at buffer stride 1, so every
  /// innermost range [lo, hi] is one contiguous buffer run; fn(start, len)
  /// receives the run's first buffer index and its length, covering the
  /// cells in exactly the canonical per-cell pack order.  This is what
  /// turns interpreted pack/unpack into one memcpy per run.  On a hoisted
  /// edge (edge_pack_hoisted) the runs of one next-outer loop share that
  /// range, so their starts step by the next-outer variable's stride.
  template <typename Fn>
  void for_each_pack_run(const IntVec& params, const IntVec& producer,
                         int edge, Fn&& fn) const {
    const poly::LoopNest& nest = pack_nests_[static_cast<std::size_t>(edge)];
    // Scratch persists per thread: pack/unpack run once per edge per tile,
    // so these must not allocate in steady state.
    thread_local IntVec pt;
    thread_local IntVec local;
    ext_seed_into(params, pt);
    for (int k = 0; k < d_; ++k)
      pt[static_cast<std::size_t>(ext_tile(k))] =
          producer[static_cast<std::size_t>(k)];
    local.assign(static_cast<std::size_t>(d_), 0);
    const int last = nest.levels() - 1;
    const bool hoisted = pack_hoisted_[static_cast<std::size_t>(edge)];
    // Buffer index of the innermost run [lo, hi] at the current outer pt.
    auto run_start = [&](Int lo) {
      for (int k = 0; k + 1 < d_; ++k)
        local[static_cast<std::size_t>(k)] =
            pt[static_cast<std::size_t>(ext_local(k))];
      local[static_cast<std::size_t>(d_ - 1)] = lo;
      return local_index(local);
    };
    auto rec = [&](auto&& self, int level) -> void {
      auto [lo, hi] = nest.range(level, pt);
      if (level == last) {
        if (lo > hi) return;
        fn(run_start(lo), hi - lo + 1);
        return;
      }
      auto v = static_cast<std::size_t>(nest.var_at(level));
      if (hoisted && level + 1 == last) {
        if (lo > hi) return;
        pt[v] = lo;
        auto [ilo, ihi] = nest.range(last, pt);
        if (ilo > ihi) return;
        const Int stride =
            strides_[v - static_cast<std::size_t>(ext_local(0))];
        Int start = run_start(ilo);
        for (Int x = lo; x <= hi; ++x, start += stride)
          fn(start, ihi - ilo + 1);
        return;
      }
      for (Int x = lo; x <= hi; ++x) {
        pt[v] = x;
        self(self, level + 1);
      }
    };
    rec(rec, 0);
  }

  // ---- initial tiles (paper IV.K) ---------------------------------------------------
  /// Finds every tile all of whose dependencies fall outside the tile
  /// space, by scanning candidate face systems (not the whole tile space).
  /// Returns the number of candidate tiles examined (for the INIT bench).
  Int for_each_initial_tile(
      const IntVec& params,
      const std::function<void(const IntVec&)>& fn) const;

  // ---- load balancing support ------------------------------------------------------
  /// Indices (within 0..d-1) of the load-balanced dimensions, priority
  /// order.
  const std::vector<int>& lb_dims() const { return lb_dims_; }
  /// Tile-order priority (paper Fig. 5): the load-balanced dimensions,
  /// then the rest in loop order.
  std::vector<int> priority_dims() const;
  /// Scans load-balance cells in priority (lb1-major) order.
  void for_each_lb_cell(const IntVec& params,
                        const std::function<void(const IntVec&)>& fn) const;

  // ---- loop nests, exposed for code emission ---------------------------------
  const poly::LoopNest& local_nest() const { return local_nest_; }
  const poly::LoopNest& lb_nest() const { return lb_nest_; }
  const poly::LoopNest& pack_nest(int edge) const {
    return pack_nests_[static_cast<std::size_t>(edge)];
  }
  const std::vector<poly::LoopNest>& face_nests() const { return face_nests_; }

 private:
  IntVec ext_seed(const IntVec& params) const;
  /// Allocation-free ext_seed: fills `seed` in place (capacity persists
  /// when the caller reuses the same scratch vector).
  void ext_seed_into(const IntVec& params, IntVec& seed) const;
  /// for_each_row's per-row step: evaluates every check's base at `pt`
  /// (innermost local reset to 0) and clamps row.sa/sb from the Ge checks
  /// with a nonzero inner coefficient — the same bounds the canonicalized
  /// generated loop computes as dp_sa/dp_sb.
  void split_row(IntVec& pt, std::vector<Int>& base, CellRow& row) const;
  /// `c` required on the whole local box, as a constraint over (params,
  /// tile) (see full_tile_test()).
  poly::Constraint box_minimum(const poly::Constraint& c) const;
  bool contains_tile(const poly::System& test, const IntVec& params,
                     const IntVec& tile) const;

  spec::ProblemSpec spec_;
  int p_ = 0;
  int d_ = 0;

  poly::Vars ext_vars_;
  poly::System extended_;
  poly::System tile_space_;

  poly::LoopNest tile_nest_;   // scan t over tile_space_
  poly::LoopNest local_nest_;  // scan i over extended_ (t fixed via seed)

  IntVec ghost_lo_, ghost_hi_, extents_, strides_;
  Int buffer_size_ = 0;
  std::vector<Int> dep_offsets_;  // constant loc_rj offsets

  std::vector<Edge> edges_;
  std::vector<poly::LoopNest> pack_nests_;  // one per edge
  std::vector<Int> unpack_shifts_;          // one per edge
  std::vector<bool> pack_hoisted_;          // one per edge

  std::vector<ValidityCheck> checks_;          // deduplicated, lifted
  std::vector<std::vector<int>> dep_checks_;   // per dependency
  std::vector<int> split_lo_, split_hi_;       // Ge, inner coef > 0 / < 0

  poly::System full_test_;    // extended_ minimised over the local box
  poly::System checks_test_;  // checks_ minimised over the local box

  std::vector<poly::System> face_systems_;  // initial-tile candidates
  std::vector<poly::LoopNest> face_nests_;

  std::vector<int> lb_dims_;
  poly::LoopNest lb_nest_;
  poly::LoopNest lb_tile_nest_;  // scan the non-lb t of one lb cell

  // Counters (constructed lazily would complicate const-ness; build once).
  std::unique_ptr<poly::LatticeCounter> cells_counter_;     // all cells
  std::unique_ptr<poly::LatticeCounter> tiles_counter_;     // all tiles
  std::unique_ptr<poly::LatticeCounter> tile_cells_counter_;  // cells of one tile
  std::unique_ptr<poly::LatticeCounter> lb_tiles_counter_;  // tiles per lb cell
};

}  // namespace dpgen::tiling
