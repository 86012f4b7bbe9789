// Codegen fuzzing: randomly generated specs pushed through the full
// generate -> compile (-Werror) -> run pipeline and compared against the
// independent serial reference at every recorded location — once with the
// default (pass-free) emission and once with a seed-chosen optimization
// pass subset, whose probe lines must be byte-identical to the baseline's.
// A small number of seeds (compiles are expensive); the wide behavioural
// sweep lives in test_fuzz.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>

#include "codegen/generator.hpp"
#include "codegen_util.hpp"
#include "engine/serial.hpp"
#include "fuzz_util.hpp"
#include "poly/count.hpp"

namespace dpgen::codegen {
namespace {

using codegen_test::compile_program;
using codegen_test::parse_result;
using codegen_test::run_command;

/// The deterministic probe lines of a run, for exact comparison.
std::string result_lines(const std::string& out) {
  std::istringstream ss(out);
  std::string line, acc;
  while (std::getline(ss, line))
    if (line.rfind("RESULT ", 0) == 0 || line.rfind("MAX ", 0) == 0)
      acc += line + "\n";
  return acc;
}

class CodegenFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CodegenFuzz, GeneratedProgramMatchesSerialReference) {
  fuzz::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  int ndeps = 0;
  spec::ProblemSpec s = fuzz::random_spec(rng, &ndeps);
  SCOPED_TRACE(s.to_text());
  tiling::TilingModel model(std::move(s));

  const Int N = 6;
  auto serial =
      engine::run_serial(model, {N}, fuzz::generic_kernel(ndeps));

  // Probe a handful of locations including the origin.
  GenOptions opt;
  opt.probes.push_back(IntVec(static_cast<std::size_t>(model.dim()), 0));
  int count = 0;
  for (const auto& [point, value] : serial.values) {
    if (++count % 7 == 0 && opt.probes.size() < 6)
      opt.probes.push_back(point);
  }

  std::string src_path = testing::TempDir() + "/dpgen_fuzz_" +
                         std::to_string(GetParam()) + ".cpp";
  write_program(model, src_path, opt);
  auto prog =
      compile_program(src_path, "fuzz" + std::to_string(GetParam()));
  ASSERT_TRUE(prog.ok) << prog.log;

  auto [status, out] =
      run_command(cat(prog.binary, " ", N, " --ranks=2 --threads=2"));
  ASSERT_EQ(status, 0) << out;
  for (const auto& probe : opt.probes)
    EXPECT_DOUBLE_EQ(parse_result(out, probe), serial.values.at(probe))
        << vec_to_string(probe) << "\n" << out;

  // The same spec through a randomly chosen pass subset: the probe lines
  // must reproduce the pass-free program's bytes exactly, on the random
  // geometry the fuzzer produced (not just the hand-built families).
  static const char* kSubsets[] = {
      "canonicalize",        "unroll:2",          "layout",
      "canonicalize,layout", "canonicalize,unroll:5", "full"};
  GenOptions popt = opt;
  popt.passes = PassPipeline::parse(
      kSubsets[rng.range(0, static_cast<Int>(std::size(kSubsets)) - 1)]);
  SCOPED_TRACE(cat("passes=", popt.passes.to_string()));
  std::string pass_src = testing::TempDir() + "/dpgen_fuzz_" +
                         std::to_string(GetParam()) + "_passes.cpp";
  write_program(model, pass_src, popt);
  auto pass_prog = compile_program(
      pass_src, cat("fuzz", GetParam(), "_passes"));
  ASSERT_TRUE(pass_prog.ok) << pass_prog.log;
  auto [pstatus, pout] =
      run_command(cat(pass_prog.binary, " ", N, " --ranks=2 --threads=2"));
  ASSERT_EQ(pstatus, 0) << pout;
  EXPECT_EQ(result_lines(pout), result_lines(out));
}

TEST_P(CodegenFuzz, LbCellWorkMatchesLatticeCounting) {
  // cell_count_lb counts a full tile as prod w and a partial one by
  // cell_count; every lb cell must hold exactly the lattice points of the
  // extended system with its lb tile indices fixed.
  fuzz::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  int ndeps = 0;
  spec::ProblemSpec s = fuzz::random_spec(rng, &ndeps);
  SCOPED_TRACE(s.to_text());
  tiling::TilingModel model(std::move(s));
  std::vector<int> order;
  for (int k = 0; k < model.dim(); ++k)
    if (std::find(model.lb_dims().begin(), model.lb_dims().end(), k) ==
        model.lb_dims().end())
      order.push_back(model.ext_tile(k));
  for (int k = 0; k < model.dim(); ++k) order.push_back(model.ext_local(k));
  const poly::LatticeCounter lattice(model.extended(), order);
  for (const Int n : {Int{3}, Int{6}, Int{9}}) {
    Int cells = 0, total = 0;
    model.for_each_lb_cell({n}, [&](const IntVec& lb) {
      IntVec seed(model.ext_vars().size(), 0);
      seed[static_cast<std::size_t>(model.ext_param(0))] = n;
      for (std::size_t i = 0; i < lb.size(); ++i)
        seed[static_cast<std::size_t>(model.ext_tile(model.lb_dims()[i]))] =
            lb[i];
      const Int work = model.cell_count_lb({n}, lb);
      EXPECT_EQ(work, lattice.count(seed)) << "N=" << n << " lb "
                                           << vec_to_string(lb);
      total += work;
      ++cells;
    });
    EXPECT_GT(cells, 0) << "N=" << n;
    EXPECT_EQ(total, model.total_cells({n})) << "N=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodegenFuzz, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace dpgen::codegen
