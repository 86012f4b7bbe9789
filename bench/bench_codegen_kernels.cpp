// CODEGEN — center-loop throughput of generated programs with and without
// the optimization pass pipeline (docs/codegen.md).  Two vectorization
// benchmark families (problems::trellis, problems::downhill) are generated,
// compiled with the host toolchain at plain -O3 (no -march=native: the
// contrast under test is "guarded loads stay scalar at the baseline ISA vs
// the canonicalized interior vectorizes", and AVX-512 masked loads would
// vectorize both sides), and run single-rank/single-thread with --report=.
//
// The measured quantity is compute-attributed seconds — the sum of
// load_balance.ranks[].measured_compute_s from the dpgen.report.v1 document
// — not wall clock: runtime setup is identical across variants, and
// pack/unpack differ only by the full-tile constant-bound scan
// (docs/codegen.md), so both would dilute the center-loop effect.  A
// trial asserts spans_dropped == 0 so the attribution is complete (the
// workloads are sized under the span ring capacity).
//
// scripts/check.sh gates the full/none cells_per_sec ratio of these benches
// (>= 1.3x on at least two families); dpgen-bench tracks their medians
// across commits like every other registered bench.

#include "bench_util.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "codegen/generator.hpp"
#include "codegen/passes.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

#ifndef DPGEN_EXTRA_CXX_FLAGS
#define DPGEN_EXTRA_CXX_FLAGS ""
#endif
#ifndef DPGEN_TEST_OPENMP
#define DPGEN_TEST_OPENMP 1
#endif

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

/// Runs a shell command, returning (exit status, combined output).
std::pair<int, std::string> run_command(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (!pipe) return {-1, "popen failed"};
  std::string out;
  char buf[4096];
  while (std::size_t n = fread(buf, 1, sizeof buf, pipe)) out.append(buf, n);
  int status = pclose(pipe);
  return {status, out};
}

/// Per-process scratch directory for generated sources, binaries and
/// report files.
const std::string& scratch_dir() {
  static const std::string dir = [] {
    const char* t = std::getenv("TMPDIR");
    std::string d = cat(t && *t ? t : "/tmp", "/dpgen_bench_codegen_",
                        static_cast<long>(::getpid()));
    ::mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

/// One benchmark family: the generator input plus the run geometry.  The
/// parameter values are chosen so the tile count stays under the span
/// ring capacity (spans_dropped must be 0 for honest attribution) while
/// the cell count is large enough to dominate per-tile overhead.
struct Family {
  const char* name;
  spec::ProblemSpec (*make_spec)();
  const char* run_args;  ///< positional parameter values
  double cells;          ///< locations computed by one run
};

spec::ProblemSpec trellis_spec() { return problems::trellis(4096).spec; }
spec::ProblemSpec downhill_spec() {
  return problems::downhill(16, 512).spec;
}

const Family kFamilies[] = {
    // 64 x 262144 field, strip tiles {1, 4096}: 4096 tiles.
    {"trellis", trellis_spec, "63 262143", 64.0 * 262144.0},
    // 256 x 131072 field, square-ish tiles {16, 512}: 4096 tiles.
    {"downhill", downhill_spec, "255 131071", 256.0 * 131072.0},
};

/// Generates and compiles one (family, passes) variant, caching the binary
/// for the repeated trials dpgen-bench runs.  Throws with the compiler log
/// on failure so the runner fails loudly instead of timing a stale binary.
const std::string& variant_binary(const Family& fam, bool full) {
  static std::map<std::string, std::string> cache;
  const std::string key = cat(fam.name, full ? "_full" : "_none");
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  tiling::TilingModel model(fam.make_spec());
  codegen::GenOptions opt;
  if (full) opt.passes = codegen::PassPipeline::parse("full");
  const std::string src = cat(scratch_dir(), "/", key, ".cpp");
  codegen::write_program(model, src, opt);

  const std::string binary = cat(scratch_dir(), "/", key);
  const std::string cmd = cat(
      DPGEN_CXX_COMPILER, " -std=c++20 -O3 ",
      DPGEN_TEST_OPENMP ? "-fopenmp -DDPGEN_RUNTIME_USE_OPENMP " : "",
      DPGEN_EXTRA_CXX_FLAGS, " -I", DPGEN_SRC_DIR, " ", src, " ",
      DPGEN_LIB_RUNTIME, " ", DPGEN_LIB_MINIMPI, " ", DPGEN_LIB_OBS, " ",
      DPGEN_LIB_SUPPORT, " -lpthread -o ", binary);
  auto [status, log] = run_command(cmd);
  if (status != 0)
    throw std::runtime_error(cat("codegen bench: compile of ", key,
                                 " failed:\n", log));
  return cache.emplace(key, binary).first->second;
}

/// One measured trial: run the variant with a report, return the
/// compute-attributed seconds from the dpgen.report.v1 document.
obs::BenchSample run_variant(const Family& fam, bool full) {
  const std::string& binary = variant_binary(fam, full);
  const std::string report =
      cat(scratch_dir(), "/", fam.name, full ? "_full" : "_none", ".json");
  auto [status, out] = run_command(cat(
      binary, " ", fam.run_args, " --ranks=1 --threads=1 --report=", report));
  if (status != 0)
    throw std::runtime_error(cat("codegen bench: run of ", fam.name,
                                 " failed:\n", out));

  std::ifstream f(report);
  std::stringstream ss;
  ss << f.rdbuf();
  json::ValuePtr doc = json::parse(ss.str());
  if (doc->at("spans_dropped").as_number() != 0.0)
    throw std::runtime_error(
        cat("codegen bench: ", fam.name, " dropped spans; compute ",
            "attribution would be biased (shrink the workload)"));
  double compute_s = 0.0;
  for (const auto& rank : doc->at("load_balance").at("ranks").as_array())
    compute_s += rank->at("measured_compute_s").as_number();

  obs::BenchSample s;
  s.seconds = compute_s;
  s.metrics = {{"cells", fam.cells},
               {"cells_per_sec",
                compute_s > 0 ? fam.cells / compute_s : 0.0}};
  return s;
}

void codegen_table() {
  header("CODEGEN",
         "generated-program center-loop throughput, pass pipeline off/on");
  std::printf("%-10s %-8s %-12s %-12s %-14s %-8s\n", "family", "passes",
              "cells", "compute_s", "cells_per_s", "ratio");
  for (const Family& fam : kFamilies) {
    double rate[2] = {0.0, 0.0};
    for (int full = 0; full <= 1; ++full) {
      obs::BenchSample best;
      for (int rep = 0; rep < 3; ++rep) {
        obs::BenchSample s = run_variant(fam, full != 0);
        if (rep == 0 || s.seconds < best.seconds) best = s;
      }
      rate[full] = best.seconds > 0 ? fam.cells / best.seconds : 0.0;
      const char* passes = full ? "full" : "none";
      std::printf("%-10s %-8s %-12.0f %-12.5f %-14.0f %-8s\n", fam.name,
                  passes, fam.cells, best.seconds, rate[full],
                  full ? "" : "-");
    }
    if (rate[0] > 0)
      std::printf("%-10s %-8s %-12s %-12s %-14s %-8.2f\n", fam.name,
                  "ratio", "", "", "", rate[1] / rate[0]);
  }
  std::printf("\n");
}

[[maybe_unused]] const bool registered = [] {
  for (const Family& fam : kFamilies) {
    register_bench(cat("codegen/", fam.name, "_none"),
                   [&fam] { return run_variant(fam, false); });
    register_bench(cat("codegen/", fam.name, "_full"),
                   [&fam] { return run_variant(fam, true); });
  }
  register_table("CODEGEN", codegen_table);
  return true;
}();

}  // namespace
