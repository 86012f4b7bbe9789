#pragma once
// Shared helpers for tests that compile and run generated programs with
// the host toolchain.  The consuming CMake target must define
// DPGEN_CXX_COMPILER, DPGEN_SRC_DIR, DPGEN_LIB_RUNTIME, DPGEN_LIB_MINIMPI,
// DPGEN_LIB_OBS and DPGEN_LIB_SUPPORT.  Optionally:
//   * DPGEN_EXTRA_CXX_FLAGS — extra flags forwarded to every generated-
//     program compile (build flavours like the TSan pass must compile the
//     program with the same instrumentation the libraries were built
//     with, or the link fails);
//   * DPGEN_TEST_OPENMP=0 — drop -fopenmp/-DDPGEN_RUNTIME_USE_OPENMP
//     (flavours that disable OpenMP build the libraries without it, and
//     the generated program must match).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/str.hpp"
#include "support/vec.hpp"

#ifndef DPGEN_EXTRA_CXX_FLAGS
#define DPGEN_EXTRA_CXX_FLAGS ""
#endif
#ifndef DPGEN_TEST_OPENMP
#define DPGEN_TEST_OPENMP 1
#endif

namespace dpgen::codegen_test {

/// Runs a shell command, returning (exit status, combined output).
inline std::pair<int, std::string> run_command(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (!pipe) return {-1, "popen failed"};
  std::string out;
  char buf[4096];
  while (std::size_t n = fread(buf, 1, sizeof buf, pipe)) out.append(buf, n);
  int status = pclose(pipe);
  return {status, out};
}

/// Extracts the value printed for the given coordinates.
inline double parse_result(const std::string& output, const IntVec& point) {
  std::string key = "RESULT (";
  for (std::size_t i = 0; i < point.size(); ++i)
    key += (i ? ", " : "") + std::to_string(point[i]);
  key += ") = ";
  auto pos = output.find(key);
  EXPECT_NE(pos, std::string::npos) << "missing '" << key << "' in:\n"
                                    << output;
  if (pos == std::string::npos) return 0.0;
  return std::strtod(output.c_str() + pos + key.size(), nullptr);
}

struct CompiledProgram {
  std::string binary;
  bool ok = false;
  std::string log;
};

/// The compiler invocation every generated-program compile starts with:
/// warning-clean (-Wall -Wextra -Werror), OpenMP enabled (unless
/// DPGEN_TEST_OPENMP=0), the build flavour's flags and the source tree on
/// the include path.
inline std::string compiler_command(const std::string& opt_flags) {
  return cat(DPGEN_CXX_COMPILER, " -std=c++20 ", opt_flags, " ",
             DPGEN_TEST_OPENMP ? "-fopenmp -DDPGEN_RUNTIME_USE_OPENMP " : "",
             DPGEN_EXTRA_CXX_FLAGS, " -Wall -Wextra -Werror -I",
             DPGEN_SRC_DIR);
}

/// Compiles a generated source with compiler_command() and the runtime
/// libraries linked in.  `opt_flags` replaces the default -O1
/// (vectorization tests need -O3).
inline CompiledProgram compile_program(const std::string& src_path,
                                       const std::string& tag,
                                       const std::string& opt_flags = "-O1") {
  CompiledProgram out;
  out.binary = testing::TempDir() + "/dpgen_e2e_" + tag;
  std::string cmd = cat(
      compiler_command(opt_flags), " ", src_path, " ", DPGEN_LIB_RUNTIME, " ",
      DPGEN_LIB_MINIMPI, " ", DPGEN_LIB_OBS, " ", DPGEN_LIB_SUPPORT,
      " -lpthread -o ", out.binary);
  auto [status, log] = run_command(cmd);
  out.ok = (status == 0);
  out.log = log;
  return out;
}

}  // namespace dpgen::codegen_test
