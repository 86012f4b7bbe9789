#pragma once
// Interpreted per-tile operations shared by the engine hooks and the
// solution-recovery machinery: executing one tile's loop nest with a
// CenterFn, and unpacking a stored edge into a tile buffer.

#include "engine/engine.hpp"

namespace dpgen::engine::detail {

/// Runs the tile's local loop nest over `buffer`, invoking `center` per
/// run of cells that share validity (CenterFn::run) with mapping
/// functions and validity flags set up (the interpreted equivalent of the
/// generated Fig. 3 loop nest).  Walks the tile row by row
/// (TilingModel::for_each_row) like the canonicalized generated loop:
/// `loc` is the row base plus the innermost index, and each row's
/// interior is one run on the row-invariant checks (one run per cell when
/// an equality varies along the row); head and tail cells are single-cell
/// runs.  When
/// `decisions` is non-null, the per-cell Cell::decision bytes are
/// appended in scan order.
void execute_tile_interpreted(const tiling::TilingModel& model,
                              const IntVec& params, const IntVec& tile,
                              const CenterFn& center, double* buffer,
                              std::vector<unsigned char>* decisions = nullptr);

/// Writes a packed edge (producer-side canonical order) into the consumer
/// tile buffer's ghost cells, one memcpy per contiguous run.
void unpack_interpreted(const tiling::TilingModel& model,
                        const IntVec& params, int edge,
                        const IntVec& producer, const double* data,
                        Int count, double* buffer);

/// Packs the producer-side cells of `edge` from `buffer` into `out` (room
/// for at least model.edges()[edge].capacity scalars), one memcpy per
/// contiguous run; returns the number of scalars packed.
Int pack_interpreted(const tiling::TilingModel& model, const IntVec& params,
                     int edge, const IntVec& producer, const double* buffer,
                     double* out);

/// Convenience overload packing into a vector (sized to capacity, then
/// trimmed); used by recovery and tests.
Int pack_interpreted(const tiling::TilingModel& model, const IntVec& params,
                     int edge, const IntVec& producer, const double* buffer,
                     std::vector<double>& out);

/// The tile containing a global point: t_k = floor(x_k / w_k).
IntVec tile_of(const tiling::TilingModel& model, const IntVec& point);

}  // namespace dpgen::engine::detail
