#pragma once
// The program generator (paper sections IV.C and V): assembles a complete,
// standalone hybrid OpenMP + message-passing C++ program for a problem.
//
// The emitted program contains only problem geometry, all specialised to
// the problem:
//   * the user's global / init / center-loop code, inserted verbatim,
//   * the tile-existence test (the FM-projected tile space as a C
//     conjunction),
//   * the Fig. 3 tile-calculation loop nest with mapping functions (loc,
//     loc_rj) and validity flags (is_valid_rj) in scope for the center code,
//   * pack and unpack functions for every tile edge,
//   * the initial-tile face scans,
//   * the load-balance cell scan with its per-cell work counting nests
//     (the role of the paper's Ehrhart polynomials),
//   * a ProgramInfo and a one-line main() calling runtime::run_program.
//
// The program includes one pre-written runtime header,
// runtime/program.hpp, exactly as the paper's generated code links its
// pre-written libraries.  That header declares only the hooks, the plain
// data the program hands over and run_program; the prefix cut
// (OwnerTable), the result sink, the command line and the run sit behind
// run_program and are compiled once into dpgen_runtime.  Compile with -I<repo>/src and link dpgen_runtime,
// dpgen_minimpi, dpgen_obs and dpgen_support (docs/codegen.md).  The
// program's worker threads follow that library's build: with OpenMP
// found, the worker loop runs inside an OpenMP parallel region (the
// hybrid configuration; link with -fopenmp).

#include <string>

#include "codegen/passes.hpp"
#include "tiling/model.hpp"

namespace dpgen::codegen {

struct GenOptions {
  /// Locations whose final values the program prints (default: the origin,
  /// the usual f(0) objective).
  std::vector<IntVec> probes;
  /// Also track and print the maximum value over all locations (the
  /// objective shape of local-alignment style problems): the program
  /// prints a "MAX (coords) = value" line.
  bool track_max = false;
  /// Optimization passes applied to the emitted center loop and tile
  /// buffer layout (docs/codegen.md).  Default: none — the paper's plain
  /// Fig. 3 emission.  Programs generated with loop passes also accept
  /// --passes=none|full at run time to fall back to the plain nest.
  PassPipeline passes;
};

/// Returns the complete C++ source of the generated program.
std::string generate_program(const tiling::TilingModel& model,
                             const GenOptions& options = {});

/// Writes the generated program to `path`.
void write_program(const tiling::TilingModel& model, const std::string& path,
                   const GenOptions& options = {});

}  // namespace dpgen::codegen
