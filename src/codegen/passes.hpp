#pragma once
// The codegen optimization pass pipeline: transforms sitting between
// tiling::TilingModel and the emitted center loop of a generated program.
//
// The generator's default emission reproduces the paper's Fig. 3 loop nest
// verbatim: one body per cell computing the original coordinates, the
// mapping function `loc`, the per-dependency `loc_rj` offsets and the
// validity flags, then the user's center code.  That shape is correct but
// hostile to vectorization: the validity flags guard loads (`if
// (is_valid_rj) ... V[loc_rj] ...`), and a compiler that cannot prove a
// conditional load safe will not if-convert it, so the loop stays scalar.
//
// Three ordered passes, selectable via GenOptions::passes, rewrite the
// innermost loop:
//
//  1. "canonicalize" — works from the model's lifted validity checks
//     (every check as an affine form over the extended variables, see
//     tiling::ValidityCheck; CenterLoopIR adds their C text), hoists the
//     loop-invariant row base of `loc` out of the innermost loop
//     (strength-reducing the per-cell address computation to `dp_row + i`),
//     and splits the innermost range into head / interior / tail segments
//     at the thresholds of the validity checks that vary with the
//     innermost variable.  Inside the interior every such check is the
//     constant `true`, so the guarded loads become unconditional and the
//     loop body is straight-line code; when every dependency moves in some
//     non-innermost dimension the interior also carries `#pragma GCC
//     ivdep` (see ivdep_legal() for the proof obligation).
//     The pass also separates full tiles from partial ones.  A tile is
//     full when its whole local box 0 <= i_k <= w_k - 1 lies in the
//     iteration space; TilingModel::full_tile_test() decides that from
//     each constraint's minimum over the box, an affine form in
//     (params, tile), emitted once as dp_tile_full(P, t).  On a full tile
//     pack and unpack scan each edge slab [Edge::box_lo, box_hi] with
//     constant bounds (same runs, same order, so payloads are unchanged),
//     and when every check also holds on the box
//     (TilingModel::checks_hold_test()) execute_tile runs one
//     constant-bound nest with every check folded to `true`
//     (emit_center_full).  Partial tiles take the split loop above.
//  2. "unroll[:U]" — unrolls the innermost loop by U (default 4).  On a
//     canonicalized (vector-eligible) interior loop this is `#pragma GCC
//     unroll U`, so unrolling composes with vectorization instead of
//     defeating it; on a non-canonicalized loop (per-cell guards, scalar
//     at baseline -O3) it is source-level replication with a scalar
//     remainder loop continuing the same counter, preserving the exact
//     cell visit order.
//  3. "layout" — pads the innermost buffer extent to a multiple of
//     kLayoutAlign cells so every buffer row starts aligned; the whole
//     tile-buffer geometry (strides, dep offsets, unpack shifts) is
//     re-derived through LayoutPlan.  The pack/unpack runs stay contiguous
//     (the innermost dimension keeps stride 1), so the memcpy-coalescing
//     win and the wire format are unchanged.
//
// Passes never change results: every segment visits the same cells in the
// same order with the same values, and the differential suites
// (tests/test_codegen_passes.cpp, tests/test_codegen_fuzz.cpp) assert
// byte-identical RESULT/MAX lines against the pass-free program and the
// interpreter for every subset.  Generated programs additionally accept
// `--passes=none|full` at run time to fall back to the plain loop and the
// unspecialised pack/unpack nests on every tile, full ones included (the
// layout pass is baked into the geometry and cannot be toggled).

#include <string>
#include <vector>

#include "tiling/model.hpp"

namespace dpgen::codegen {

class Writer;

/// Innermost-extent padding granularity of the layout pass, in cells
/// (8 doubles = one 64-byte line).
inline constexpr Int kLayoutAlign = 8;

/// The ordered pass list.  Parsed from "none", "full"/"all" or a
/// comma-separated subset ("canonicalize,unroll:8,layout").
struct PassPipeline {
  bool canonicalize = false;
  bool unroll = false;
  bool layout = false;
  int unroll_factor = 4;

  /// True when any pass is enabled.
  bool any() const { return canonicalize || unroll || layout; }
  /// True when a pass rewriting the loop body (not just the buffer
  /// geometry) is enabled — these are the passes the generated program's
  /// --passes= flag can disable at run time.
  bool loop_passes() const { return canonicalize || unroll; }

  /// Parses a pass list; throws dpgen::Error on unknown pass names or
  /// out-of-range unroll factors (1..16).
  static PassPipeline parse(const std::string& text);

  /// Names of the enabled passes in pipeline order, e.g.
  /// {"canonicalize", "unroll:4", "layout"}.
  std::vector<std::string> names() const;

  /// The canonical textual form: names() joined with ",", or "none".
  std::string to_string() const;
};

/// The tile-buffer geometry the generated program is emitted against:
/// either the model's own (identity) or the layout pass's padded variant.
/// Everything the generator bakes into constants — strides, buffer size,
/// per-dependency loc offsets, per-edge unpack shifts, the ghost-base
/// constant of the mapping function — comes from here so the two variants
/// cannot drift apart.
struct LayoutPlan {
  IntVec extents;
  IntVec strides;
  IntVec ghost_lo;
  Int buffer_size = 0;
  /// Constant term of `loc`: sum_k strides[k] * ghost_lo[k].
  Int loc_const = 0;
  /// Constant offset from `loc` to `loc_rj`, per dependency.
  std::vector<Int> dep_offsets;
  /// Constant unpack shift per edge (producer local -> consumer ghost).
  std::vector<Int> unpack_shifts;
  /// True when padding actually changed the geometry.
  bool padded = false;

  /// Derives the plan from the model; `pad` pads the innermost extent up
  /// to a multiple of kLayoutAlign (a no-op for 1-dimensional problems,
  /// where there is no outer stride to align).
  static LayoutPlan make(const tiling::TilingModel& model, bool pad);
};

/// The center loop's emission-side view: the C test text of every
/// validity check (indexed like TilingModel::validity_checks(), i.e. by
/// dp_chk number) plus the ivdep decision.  The affine data — lifted
/// forms, innermost coefficients, per-dependency check lists — lives in
/// the model, which the interpreted engine runs from too.
struct CenterLoopIR {
  std::vector<std::string> rendered;  ///< e.g. "(x1) >= 0", per check
  bool ivdep_legal = false;

  /// Renders the model's checks over the original names and decides ivdep
  /// legality.
  static CenterLoopIR lift(const tiling::TilingModel& model);
};

/// True when `#pragma GCC ivdep` is sound for the innermost loop: every
/// dependency vector has a nonzero component in some non-innermost
/// dimension.  Then for any dependency the buffer distance |loc_rj - loc|
/// is at least the innermost tile width (the read lands outside the row
/// of cells the innermost loop writes), so the loop carries no memory
/// dependence.  Proof sketch: with j the outermost nonzero component,
/// strides[j] >= sum_{k>j} |r_k| * strides[k] + w_inner because every
/// extent covers its dimension's ghost depth, hence |sum_k strides[k] *
/// r_k| >= w_inner.  Assumes the center code writes only V[loc] (the DP
/// contract).
bool ivdep_legal(const tiling::TilingModel& model);

/// Renders the per-cell mapping function `loc` against `plan`'s strides
/// (the stride-weighted local variables plus the ghost-base constant).
std::string loc_expr_cpp(const tiling::TilingModel& model,
                         const LayoutPlan& plan,
                         const std::vector<std::string>& ext_names);

/// Emits the plain (pass-free) center loop nest: the generator's
/// historical Fig. 3 emission, parametrised by the layout plan.
void emit_center_plain(Writer& w, const tiling::TilingModel& model,
                       const LayoutPlan& plan,
                       const std::vector<std::string>& ext_names);

/// Emits the optimized center loop nest for the enabled loop passes
/// (canonicalize and/or unroll).  The layout pass participates through
/// `plan` only.  The interior for-line carries the "dpgen:vec-inner"
/// marker consumed by the vectorization smoke in scripts/check.sh.
void emit_center_optimized(Writer& w, const tiling::TilingModel& model,
                           const LayoutPlan& plan,
                           const PassPipeline& passes,
                           const std::vector<std::string>& ext_names);

/// Emits the full-tile center nest (canonicalize only): the local box
/// 0 <= i_k <= w_k - 1 with constant bounds, in the local nest's order and
/// directions, every validity check folded to `true` and the whole
/// innermost range one interior loop (carrying the vectorization marker).
/// Correct only on tiles passing TilingModel::tile_full and
/// tile_checks_hold.
void emit_center_full(Writer& w, const tiling::TilingModel& model,
                      const LayoutPlan& plan, const PassPipeline& passes,
                      const std::vector<std::string>& ext_names);

/// The nest scanning the local box lo_k <= i_k <= hi_k over the local
/// variables in dimension order, with constant bounds and the given scan
/// directions (empty: ascending).
poly::LoopNest local_box_nest(const tiling::TilingModel& model,
                              const IntVec& lo, const IntVec& hi,
                              const std::vector<int>& dirs = {});

}  // namespace dpgen::codegen
