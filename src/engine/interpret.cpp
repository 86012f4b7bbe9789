#include "engine/interpret.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"

namespace dpgen::engine::detail {

void execute_tile_interpreted(const tiling::TilingModel& model,
                              const IntVec& params, const IntVec& tile,
                              const CenterFn& center, double* buffer,
                              std::vector<unsigned char>* decisions) {
  const auto last = static_cast<std::size_t>(model.dim() - 1);
  const auto ndeps = model.problem().deps().size();
  const auto& checks = model.validity_checks();

  // Per-thread scratch: execute runs once per tile on the hot path and
  // must not allocate in steady state.
  thread_local std::vector<Int> loc_dep;
  thread_local std::vector<Int> offsets;
  thread_local std::vector<unsigned char> valid;
  thread_local std::vector<unsigned char> row_valid;
  thread_local IntVec x;
  loc_dep.assign(ndeps, 0);
  offsets.resize(ndeps);
  for (std::size_t j = 0; j < ndeps; ++j)
    offsets[j] = model.dep_loc_offset(static_cast<int>(j));
  valid.assign(ndeps, 0);
  row_valid.assign(ndeps, 0);
  x.assign(last + 1, 0);

  // An equality that varies along the row holds at isolated cells, so it
  // stays a per-cell test even in the interior.
  bool interior_eq = false;
  for (const auto& c : checks)
    if (c.rel == poly::Rel::Eq && c.inner_coef != 0) interior_eq = true;

  // Runs go through plain pointers, not the thread_local vectors (each
  // thread_local access may cost a TLS lookup).
  unsigned char* const valid_p = valid.data();
  unsigned char* const row_valid_p = row_valid.data();
  Int* const x_p = x.data();

  CellRun run;
  run.V = buffer;
  run.dep_offsets = offsets.data();
  run.ndeps = ndeps;
  run.valid = valid_p;
  run.x = x_p;
  run.dim = model.dim();
  run.params = params.data();
  run.loc_dep = loc_dep.data();
  run.decisions = decisions;

  auto holds = [](const tiling::ValidityCheck& c, Int value) {
    return c.rel == poly::Rel::Ge ? value >= 0 : value == 0;
  };

  model.for_each_row(params, tile, [&](const tiling::CellRow& row) {
    std::copy(row.x, row.x + last, x_p);
    for (std::size_t j = 0; j < ndeps; ++j) {
      unsigned char ok = 1;
      for (int c : model.dep_checks(static_cast<int>(j))) {
        const auto cs = static_cast<std::size_t>(c);
        if (checks[cs].inner_coef == 0 &&
            !holds(checks[cs], row.check_base[cs]))
          ok = 0;
      }
      row_valid_p[j] = ok;
    }
    // Per-cell validity from the checks that vary along the row; on the
    // interior the split already guarantees the Ge ones.
    auto set_valid = [&](Int i, bool interior) {
      for (std::size_t j = 0; j < ndeps; ++j) {
        unsigned char ok = row_valid_p[j];
        for (int c : model.dep_checks(static_cast<int>(j))) {
          const auto cs = static_cast<std::size_t>(c);
          const tiling::ValidityCheck& ch = checks[cs];
          if (!ok) break;
          if (ch.inner_coef == 0 || (interior && ch.rel == poly::Rel::Ge))
            continue;
          ok = holds(ch, add_ck(row.check_base[cs], mul_ck(ch.inner_coef, i)));
        }
        valid_p[j] = ok;
      }
    };
    // Cells first, first + step, ... in scan order, all with the flags
    // currently in valid_p.
    run.step = row.ascending ? 1 : -1;
    auto issue = [&](Int first, Int count) {
      run.loc = row.loc + first;
      run.count = count;
      x_p[last] = row.x_inner + first;
      center.run(run);
    };
    // Head and tail cells, and interior cells under a row-varying
    // equality, each get their own flags and a single-cell run; the rest
    // of the interior is one run on the row-invariant flags.  [from, to]
    // is inclusive in scan order and may be empty.
    auto single_cells = [&](Int from, Int to, bool interior) {
      for (Int i = from; i != to + run.step; i += run.step) {
        set_valid(i, interior);
        issue(i, 1);
      }
    };
    auto interior_cells = [&](Int from, Int to) {
      if (interior_eq) {
        single_cells(from, to, true);
      } else if (row.sa <= row.sb) {
        std::copy(row_valid_p, row_valid_p + ndeps, valid_p);
        issue(from, row.sb - row.sa + 1);
      }
    };
    // Head, interior and tail in scan order (reversed when descending).
    if (row.ascending) {
      single_cells(row.lo, row.sa - 1, false);
      interior_cells(row.sa, row.sb);
      single_cells(row.sb + 1, row.hi, false);
    } else {
      single_cells(row.hi, row.sb + 1, false);
      interior_cells(row.sb, row.sa);
      single_cells(row.sa - 1, row.lo, false);
    }
  });
}

void unpack_interpreted(const tiling::TilingModel& model,
                        const IntVec& params, int edge,
                        const IntVec& producer, const double* data,
                        Int count, double* buffer) {
  // The consumer-side ghost index of a pack cell is its producer-local
  // index plus a per-edge constant, so every producer run is also one
  // contiguous ghost run.
  const Int shift = model.edge_unpack_shift(edge);
  Int pos = 0;
  model.for_each_pack_run(params, producer, edge, [&](Int start, Int len) {
    DPGEN_ASSERT(pos + len <= count);
    std::memcpy(buffer + start + shift, data + pos,
                static_cast<std::size_t>(len) * sizeof(double));
    pos += len;
  });
  DPGEN_CHECK(pos == count, "unpack: edge payload length mismatch");
}

Int pack_interpreted(const tiling::TilingModel& model, const IntVec& params,
                     int edge, const IntVec& producer, const double* buffer,
                     double* out) {
  Int n = 0;
  model.for_each_pack_run(params, producer, edge, [&](Int start, Int len) {
    std::memcpy(out + n, buffer + start,
                static_cast<std::size_t>(len) * sizeof(double));
    n += len;
  });
  return n;
}

Int pack_interpreted(const tiling::TilingModel& model, const IntVec& params,
                     int edge, const IntVec& producer, const double* buffer,
                     std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(
      model.edges()[static_cast<std::size_t>(edge)].capacity));
  Int n = pack_interpreted(model, params, edge, producer, buffer, out.data());
  out.resize(static_cast<std::size_t>(n));
  return n;
}

IntVec tile_of(const tiling::TilingModel& model, const IntVec& point) {
  const auto& w = model.problem().widths();
  IntVec t(point.size());
  for (std::size_t k = 0; k < point.size(); ++k)
    t[k] = floor_div(point[k], w[k]);
  return t;
}

}  // namespace dpgen::engine::detail
