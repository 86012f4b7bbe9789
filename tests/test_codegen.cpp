// Tests for the code generator: emission helpers, structural checks on the
// generated source, and a full end-to-end cycle — generate, compile with
// the host toolchain (OpenMP enabled), run as a hybrid program, and compare
// the printed results against the serial oracle and the engine.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codegen/emit.hpp"
#include "codegen/generator.hpp"
#include "codegen_util.hpp"
#include "json_util.hpp"
#include "obs/trace.hpp"
#include "poly/parse.hpp"
#include "problems/problems.hpp"
#include "runtime/launch.hpp"
#include "spec/parser.hpp"
#include "support/json_schema.hpp"
#include "support/str.hpp"
#include "tiling/balance.hpp"

namespace dpgen::codegen {
namespace {

TEST(EmitExpr, RendersAffineExpressions) {
  std::vector<std::string> names{"N", "x"};
  poly::Vars vars({"N", "x"});
  EXPECT_EQ(expr_cpp(poly::parse_expr("2*x - N + 3", vars), names),
            "-N + 2LL*x + 3LL");
  EXPECT_EQ(expr_cpp(poly::parse_expr("x", vars), names), "x");
  EXPECT_EQ(expr_cpp(poly::LinExpr(2), names), "0LL");
  EXPECT_EQ(expr_cpp(poly::LinExpr(2, -7), names), "-7LL");
}

TEST(EmitBound, LowerAndUpperBounds) {
  std::vector<std::string> names{"N", "x"};
  poly::Bound lower;  // 2x - N >= 0  ->  x >= ceil(N/2)
  lower.coef = 2;
  lower.rest = poly::LinExpr(2);
  lower.rest.set_coef(0, -1);
  EXPECT_EQ(bound_cpp(lower, names), "dp_ceildiv(N, 2LL)");

  poly::Bound upper;  // -x + N >= 0  ->  x <= N
  upper.coef = -1;
  upper.rest = poly::LinExpr(2);
  upper.rest.set_coef(0, 1);
  EXPECT_EQ(bound_cpp(upper, names), "(N)");
}

TEST(EmitSystem, ConjunctionOfConstraints) {
  poly::Vars vars({"x"});
  poly::System s(vars);
  s.add(poly::parse_constraint("x >= 0", vars));
  s.add(poly::parse_constraint("x <= 5", vars));
  std::string test = system_test_cpp(s, {"x"});
  EXPECT_NE(test.find("(x) >= 0"), std::string::npos);
  EXPECT_NE(test.find(" && "), std::string::npos);
  EXPECT_EQ(system_test_cpp(poly::System(vars), {"x"}), "true");
}

TEST(EmitWriter, IndentationAndBlocks) {
  Writer w;
  w.line("a;");
  {
    Block b(w, "if (x)");
    w.line("b;");
  }
  EXPECT_EQ(w.str(), "a;\nif (x) {\n  b;\n}\n");
}

TEST(GeneratedSource, ContainsPaperArtifacts) {
  problems::Problem p = problems::bandit2(8);
  tiling::TilingModel model(p.spec);
  std::string src = generate_program(model);
  // The paper's user-visible symbols (IV.B).
  EXPECT_NE(src.find("loc_r1"), std::string::npos);
  EXPECT_NE(src.find("is_valid_r1"), std::string::npos);
  // The user's center code, inserted verbatim.
  EXPECT_NE(src.find("V[loc] = v1 > v2 ? v1 : v2;"), std::string::npos);
  // Structural pieces: tile space test, pack/unpack switches, balancer.
  EXPECT_NE(src.find("dp_tile_exists"), std::string::npos);
  EXPECT_NE(src.find("switch (dp_e)"), std::string::npos);
  EXPECT_NE(src.find("dp_cell_count_lb"), std::string::npos);
  // The 4-simplex total work is a clean Ehrhart polynomial: the fit must
  // have succeeded (period 1).
  EXPECT_NE(src.find("Ehrhart quasi-polynomial, period 1"),
            std::string::npos);
  // Descending loops for the positive-dependency dimensions (Fig. 3).
  EXPECT_NE(src.find("--i_s1"), std::string::npos);
}

TEST(GeneratedSource, SharedValidityChecksComputedOnce) {
  // Paper IV.G: bandit2's four dependencies all check the same shifted sum
  // constraint, so the generated code must evaluate it exactly once.
  problems::Problem p = problems::bandit2(8);
  tiling::TilingModel model(p.spec);
  std::string src = generate_program(model);
  // The shared check expression appears once; all four flags reference it.
  std::size_t checks = 0;
  for (std::size_t pos = src.find("const bool dp_chk_");
       pos != std::string::npos;
       pos = src.find("const bool dp_chk_", pos + 1))
    ++checks;
  EXPECT_EQ(checks, 1u);
  EXPECT_NE(src.find("const bool is_valid_r4 = dp_chk_0;"),
            std::string::npos);
}

TEST(GeneratedSource, EchoesTheSpecForProvenance) {
  problems::Problem p = problems::bandit2(8);
  tiling::TilingModel model(p.spec);
  std::string src = generate_program(model);
  EXPECT_NE(src.find("//   problem bandit2"), std::string::npos);
  EXPECT_NE(src.find("//   dep r1 = (1, 0, 0, 0)"), std::string::npos);
  EXPECT_NE(src.find("//   tilewidths 8 8 8 8"), std::string::npos);
}

TEST(GeneratedSource, ProbeDefaultsToOrigin) {
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  std::string src = generate_program(model);
  EXPECT_NE(src.find("static const dpgen::Int kProbes[] = "
                     "{0LL, 0LL, 0LL, 0LL};"),
            std::string::npos);
  EXPECT_NE(src.find(".probes = {.points = {kProbes, 4},"), std::string::npos);
}

TEST(GeneratedSource, MainDelegatesToLauncher) {
  // The command line, the run and the printed lines live once, in
  // runtime::run_program: the emitted main is one call, and the program
  // parses no flags, cuts no load balance and touches neither the run's
  // observability state nor the document writers itself.  Tiles cross
  // into the runtime as plain pointers: no vector anywhere, with or
  // without the loop passes and a tracked maximum.
  problems::Problem p = problems::bandit2(8);
  tiling::TilingModel model(p.spec);
  GenOptions full;
  full.passes = PassPipeline::parse("full");
  full.track_max = true;
  for (const std::string& src :
       {generate_program(model), generate_program(model, full)}) {
    EXPECT_NE(src.find("int main(int argc, char** argv) {\n"
                       "  return dpgen::runtime::run_program(dp_program, "
                       "argc, argv);\n}\n"),
              std::string::npos);
    for (const char* banned :
         {"launch<", "parse_flag", "usage:", "printf", "__int128", "std::map",
          "std::mutex", "obs::Session", "ThreadBinding",
          "Profiler::instance()", "MonitorOptions", "write_report_json",
          "IntVec", "std::vector", ".data()"})
      EXPECT_EQ(src.find(banned), std::string::npos) << banned;
  }
}

TEST(GeneratedSource, WriteProgramCreatesFile) {
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  std::string path = testing::TempDir() + "/dpgen_write_test.cpp";
  write_program(model, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("int main(int argc, char** argv)"),
            std::string::npos);
}

// ---- end-to-end: generate -> compile -> run -> compare -------------------

using codegen_test::compile_program;
using codegen_test::parse_result;
using codegen_test::run_command;

/// f(x) = f(x-2) + 1 with f(0) = f(1) = 1 over 0 <= x <= N: a negative
/// template vector (ascending loops, ghost cells on the low side,
/// dependency offsets toward smaller tiles).
spec::ProblemSpec forward_spec() {
  spec::ProblemSpec s;
  s.name("forward")
      .params({"N"})
      .vars({"x"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .dep("r1", {-2})
      .load_balance({"x"})
      .tile_widths({3})
      .center_code("V[loc] = is_valid_r1 ? V[loc_r1] + 1.0 : 1.0;");
  return s;
}

/// The RESULT and MAX lines of a generated program's output.
std::string result_lines(const std::string& out) {
  std::istringstream in(out);
  std::string lines;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("RESULT ", 0) == 0 || line.rfind("MAX ", 0) == 0)
      lines += line + "\n";
  return lines;
}

TEST(EndToEnd, GeneratedBandit2MatchesOracle) {
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  std::string src_path = testing::TempDir() + "/dpgen_bandit2_gen.cpp";
  write_program(model, src_path);

  auto prog = compile_program(src_path, "bandit2");
  ASSERT_TRUE(prog.ok) << "generated program failed to compile:\n"
                       << prog.log;

  const Int N = 11;
  double expected = p.reference({N});
  // Single rank, single thread.
  {
    auto [status, out] = run_command(cat(prog.binary, " ", N));
    ASSERT_EQ(status, 0) << out;
    EXPECT_NEAR(parse_result(out, p.objective), expected, 1e-12) << out;
    EXPECT_NE(out.find("STATS tiles="), std::string::npos);
    // The emitted Ehrhart polynomial: total work of the 4-simplex is
    // C(N+4, 4) = 1365 at N = 11.
    EXPECT_NE(out.find("total_work=1365"), std::string::npos) << out;
  }
  // Degenerate parameters: an empty iteration space must terminate
  // cleanly with no results.
  {
    auto [status, out] = run_command(cat(prog.binary, " -1"));
    ASSERT_EQ(status, 0) << out;
    EXPECT_EQ(out.find("RESULT"), std::string::npos) << out;
  }
  // Hybrid: 2 ranks x 2 OpenMP threads.
  {
    auto [status, out] =
        run_command(cat(prog.binary, " ", N, " --ranks=2 --threads=2"));
    ASSERT_EQ(status, 0) << out;
    EXPECT_NEAR(parse_result(out, p.objective), expected, 1e-12) << out;
  }
  // Level-set priority policy.
  {
    auto [status, out] =
        run_command(cat(prog.binary, " ", N, " --policy=level"));
    ASSERT_EQ(status, 0) << out;
    EXPECT_NEAR(parse_result(out, p.objective), expected, 1e-12) << out;
  }
}

TEST(EndToEnd, ParameterNamedLbCompiles) {
  // Every spec parameter is declared by name in the emitted lb-cell
  // counters, so their coordinate argument takes the reserved name dp_lb:
  // bandit2 with N renamed to lb compiles and prints the same RESULT.
  problems::Problem p = problems::bandit2(4);
  std::string text = p.spec.to_text();
  auto rename = [&](const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from << " in\n" << text;
    text.replace(at, from.size(), to);
  };
  rename("params N\n", "params lb\n");
  rename("N - s1", "lb - s1");
  std::string results[2];
  for (int renamed = 0; renamed < 2; ++renamed) {
    tiling::TilingModel model(renamed ? spec::parse_spec(text) : p.spec);
    const std::string name = renamed ? "bandit2_lb" : "bandit2_n";
    const std::string src_path =
        cat(testing::TempDir(), "/dpgen_", name, "_gen.cpp");
    write_program(model, src_path);
    auto prog = compile_program(src_path, name);
    ASSERT_TRUE(prog.ok) << prog.log;
    auto [status, out] = run_command(cat(prog.binary, " 11 --ranks=2"));
    ASSERT_EQ(status, 0) << out;
    results[renamed] = result_lines(out);
  }
  EXPECT_NE(results[0].find("RESULT (0, 0, 0, 0) = "), std::string::npos)
      << results[0];
  EXPECT_EQ(results[1], results[0]);
}

TEST(EndToEnd, GeneratedLcsMatchesOracle) {
  std::vector<std::string> seqs{"ABCBDAB", "BDCABA"};
  problems::Problem p = problems::lcs(seqs, 4);
  tiling::TilingModel model(p.spec);
  std::string src_path = testing::TempDir() + "/dpgen_lcs_gen.cpp";
  write_program(model, src_path);

  auto prog = compile_program(src_path, "lcs");
  ASSERT_TRUE(prog.ok) << "generated program failed to compile:\n"
                       << prog.log;

  IntVec params = problems::sequence_params(seqs);
  std::string args;
  for (Int v : params) args += cat(" ", v);
  auto [status, out] =
      run_command(cat(prog.binary, args, " --ranks=2 --threads=2"));
  ASSERT_EQ(status, 0) << out;
  EXPECT_DOUBLE_EQ(parse_result(out, p.objective), 4.0) << out;

  // The generated program's --trace/--metrics/--report flags produce a
  // loadable Chrome trace (one tile_execute X event per tile), a metrics
  // dump, and a schema-valid performance report.
  if (obs::kTraceCompiled) {
    std::string trace = testing::TempDir() + "/dpgen_lcs_trace.json";
    std::string metrics = testing::TempDir() + "/dpgen_lcs_metrics.json";
    std::string report = testing::TempDir() + "/dpgen_lcs_report.json";
    auto [tstatus, tout] = run_command(cat(
        prog.binary, args, " --ranks=2 --threads=2 --trace=", trace,
        " --metrics=", metrics, " --report=", report));
    ASSERT_EQ(tstatus, 0) << tout;
    {
      std::ifstream rf(report);
      ASSERT_TRUE(rf.good()) << "generated program wrote no report file";
      std::stringstream rs;
      rs << rf.rdbuf();
      auto rdoc = json::parse(rs.str());
      EXPECT_EQ(rdoc->at("schema").as_string(), "dpgen.report.v1");
      EXPECT_EQ(rdoc->at("source").as_string(), "generated");
      EXPECT_EQ(rdoc->at("problem").as_string(), "lcs2");
      EXPECT_EQ(rdoc->at("nranks").as_number(), 2);
      EXPECT_GE(rdoc->at("critical_path").at("length").as_number(), 1);
      std::ifstream sf(DPGEN_SRC_DIR "/../tools/report_schema.json");
      ASSERT_TRUE(sf.good());
      std::stringstream schema_text;
      schema_text << sf.rdbuf();
      auto schema = json::parse(schema_text.str());
      for (const auto& e : json::validate(*schema, *rdoc))
        ADD_FAILURE() << e;
      std::remove(report.c_str());
    }
    std::ifstream tf(trace);
    ASSERT_TRUE(tf.good()) << "generated program wrote no trace file";
    std::stringstream ss;
    ss << tf.rdbuf();
    auto doc = json::parse(ss.str());
    long long tile_events = 0;
    for (const auto& ev : doc->at("traceEvents").as_array())
      if (ev->at("ph").as_string() == "X" &&
          ev->at("cat").as_string() == "tile_execute")
        ++tile_events;
    EXPECT_EQ(tile_events, model.total_tiles(params));
    std::ifstream mf(metrics);
    ASSERT_TRUE(mf.good()) << "generated program wrote no metrics file";
    std::stringstream ms;
    ms << mf.rdbuf();
    EXPECT_NO_THROW(json::parse(ms.str()));
    std::remove(trace.c_str());
    std::remove(metrics.c_str());
  }

  // Causal message tracing: --msgtrace writes a dpgen.msgtrace.v1 document
  // whose per-link conservation accounts every sequence number, and the
  // run prints a MSGTRACE summary line.
  if (obs::kTraceCompiled) {
    std::string mt = testing::TempDir() + "/dpgen_lcs_msgtrace.json";
    auto [mtstatus, mtout] = run_command(
        cat(prog.binary, args, " --ranks=2 --threads=2 --msgtrace=", mt));
    ASSERT_EQ(mtstatus, 0) << mtout;
    EXPECT_DOUBLE_EQ(parse_result(mtout, p.objective), 4.0) << mtout;
    EXPECT_NE(mtout.find("MSGTRACE records="), std::string::npos) << mtout;
    std::ifstream mtf(mt);
    ASSERT_TRUE(mtf.good()) << "generated program wrote no msgtrace file";
    std::stringstream mts;
    mts << mtf.rdbuf();
    auto mtdoc = json::parse(mts.str());
    EXPECT_EQ(mtdoc->at("schema").as_string(), "dpgen.msgtrace.v1");
    EXPECT_EQ(mtdoc->at("source").as_string(), "generated");
    const json::Value& cons = mtdoc->at("conservation");
    EXPECT_EQ(cons.at("total_sent").as_number(),
              cons.at("total_delivered").as_number());
    EXPECT_TRUE(cons.at("accounted").boolean);
    std::ifstream msf(DPGEN_SRC_DIR "/../tools/msgtrace_schema.json");
    ASSERT_TRUE(msf.good());
    std::stringstream mschema_text;
    mschema_text << msf.rdbuf();
    auto mschema = json::parse(mschema_text.str());
    for (const auto& e : json::validate(*mschema, *mtdoc))
      ADD_FAILURE() << e;
    std::remove(mt.c_str());
  }

  // Live monitoring: --monitor streams dpgen.events.v1 heartbeats, the
  // run prints a MONITOR summary, and on a balanced in-process run the
  // straggler detector stays quiet.
  {
    std::string events = testing::TempDir() + "/dpgen_lcs_events.jsonl";
    auto [mstatus, mout] =
        run_command(cat(prog.binary, args, " --ranks=2 --threads=2",
                        " --monitor=", events, " --monitor-interval=0.002"));
    ASSERT_EQ(mstatus, 0) << mout;
    EXPECT_DOUBLE_EQ(parse_result(mout, p.objective), 4.0) << mout;
    EXPECT_NE(mout.find("MONITOR heartbeats="), std::string::npos) << mout;
    EXPECT_NE(mout.find("stragglers=0"), std::string::npos) << mout;

    std::ifstream sf(DPGEN_SRC_DIR "/../tools/events_schema.json");
    ASSERT_TRUE(sf.good());
    std::stringstream schema_text;
    schema_text << sf.rdbuf();
    auto schema = json::parse(schema_text.str());

    std::ifstream ef(events);
    ASSERT_TRUE(ef.good()) << "generated program wrote no events file";
    std::string line, first, last;
    long long heartbeats = 0;
    while (std::getline(ef, line)) {
      if (first.empty()) first = line;
      last = line;
      auto ev = json::parse(line);
      for (const auto& e : json::validate(*schema, *ev)) ADD_FAILURE() << e;
      if (ev->at("event").as_string() == "heartbeat") ++heartbeats;
    }
    EXPECT_NE(first.find("run_start"), std::string::npos) << first;
    EXPECT_NE(first.find("\"generated\""), std::string::npos) << first;
    EXPECT_NE(last.find("run_end"), std::string::npos) << last;
    EXPECT_GE(heartbeats, 1);
    std::remove(events.c_str());
  }
}

TEST(EndToEnd, GeneratedDelayedBanditMatchesOracle) {
  // 6-dimensional wedge space (coupled constraints s_i + f_i <= u_i):
  // exercises multi-check validity flags and non-box pack clipping in
  // generated code.
  problems::Problem p = problems::bandit2_delay(3);
  tiling::TilingModel model(p.spec);
  std::string src_path = testing::TempDir() + "/dpgen_delay_gen.cpp";
  write_program(model, src_path);

  auto prog = compile_program(src_path, "delay");
  ASSERT_TRUE(prog.ok) << prog.log;

  const Int N = 6;
  auto [status, out] =
      run_command(cat(prog.binary, " ", N, " --ranks=2 --threads=2"));
  ASSERT_EQ(status, 0) << out;
  EXPECT_NEAR(parse_result(out, p.objective), p.reference({N}), 1e-12)
      << out;
}

TEST(EndToEnd, GeneratedMsa3WithEmbeddedSequences) {
  // The sequences live in the generated program's global code; validates
  // the global-fragment path and the 7-dependency subset recurrence.
  std::vector<std::string> seqs{problems::random_dna(9, 7),
                                problems::random_dna(8, 8),
                                problems::random_dna(10, 9)};
  problems::Problem p = problems::msa(seqs, 4);
  tiling::TilingModel model(p.spec);
  std::string src_path = testing::TempDir() + "/dpgen_msa3_gen.cpp";
  write_program(model, src_path);

  auto prog = compile_program(src_path, "msa3");
  ASSERT_TRUE(prog.ok) << prog.log;

  IntVec params = problems::sequence_params(seqs);
  std::string args;
  for (Int v : params) args += cat(" ", v);
  auto [status, out] = run_command(cat(prog.binary, args, " --threads=2"));
  ASSERT_EQ(status, 0) << out;
  EXPECT_NEAR(parse_result(out, p.objective), p.reference(params), 1e-12)
      << out;
}

TEST(EndToEnd, GeneratedFloatScalarProgram) {
  // The paper: "the data type of the state array is adjustable in the
  // generated program".  A float-typed countdown must compile and count.
  // dpgen_runtime compiles the driver for double only, so this program
  // instantiates run_node<float> in its own translation unit: it is the
  // test of that fallback path.
  spec::ProblemSpec s;
  s.name("count_f")
      .params({"N"})
      .vars({"x"})
      .array("acc", "float")
      .constraint("x >= 0")
      .constraint("x <= N")
      .dep("r1", {1})
      .load_balance({"x"})
      .tile_widths({4})
      .center_code("acc[loc] = is_valid_r1 ? acc[loc_r1] + 1.0f : 1.0f;");
  tiling::TilingModel model(std::move(s));
  std::string src_path = testing::TempDir() + "/dpgen_float_gen.cpp";
  write_program(model, src_path);
  std::ifstream in(src_path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("using dp_scalar = float;"), std::string::npos);

  auto prog = compile_program(src_path, "floats");
  ASSERT_TRUE(prog.ok) << prog.log;
  auto [status, out] = run_command(cat(prog.binary, " 25 --ranks=2"));
  ASSERT_EQ(status, 0) << out;
  EXPECT_DOUBLE_EQ(parse_result(out, {0}), 26.0) << out;
}

/// Defined symbols of `nm_args` (an object file, or an archive with -A)
/// on lines containing `line_filter` that belong to the double-precision
/// driver or to the compiled half of runtime/program.hpp and
/// runtime/run_state.hpp, one per line.  Fails the calling test when nm
/// fails or no line passes the filter.
std::string driver_symbols(const std::string& nm_args,
                           const std::string& line_filter = "") {
  auto [status, out] = run_command(
      cat(DPGEN_NM, " -C --defined-only ", nm_args));
  EXPECT_EQ(status, 0) << out;
  std::istringstream in(out);
  std::string hits;
  int listed = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find(line_filter) == std::string::npos) continue;
    ++listed;
    for (const char* name : {"dpgen::runtime::run_node",
                             "dpgen::runtime::TileTable",
                             "dpgen::runtime::ShardedTileTable",
                             "dpgen::runtime::CheckpointStore",
                             "dpgen::runtime::OwnerTable::",
                             "dpgen::runtime::ResultSink<double>::",
                             "dpgen::runtime::run_program"})
      if (line.find(name) != std::string::npos) {
        hits += line + "\n";
        break;
      }
  }
  EXPECT_GT(listed, 0) << "nm listed no symbols for " << nm_args << "\n"
                       << out;
  return hits;
}

TEST(DriverInstantiation, DoubleProgramAndEngineCarryNoDriverCode) {
  // run_node<double>, CheckpointStore<double>, run_program<double>,
  // ResultSink<double> and OwnerTable are compiled once, into
  // dpgen_runtime.  A generated double program and the engine must only
  // reference them: a definition here means an extern template in
  // driver.hpp, checkpoint.hpp, program.hpp or run_state.hpp stopped
  // applying and every program compiles that code again.
  if (std::string(DPGEN_NM).empty()) GTEST_SKIP() << "no nm configured";
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  const std::string src = testing::TempDir() + "/dpgen_extern_gen.cpp";
  const std::string obj = testing::TempDir() + "/dpgen_extern_gen.o";
  write_program(model, src);
  // -O3, as programs are built for speed: at -O3 GCC also instantiates
  // in-class members of an extern template for inlining, and whatever
  // they call that is not covered (a sort over a member's lambda) lands
  // in the program.
  auto [status, log] = run_command(
      cat(codegen_test::compiler_command("-O3"), " -c ", src, " -o ", obj));
  ASSERT_EQ(status, 0) << log;
  EXPECT_EQ(driver_symbols(obj), "");
  auto [ustatus, undefined] =
      run_command(cat(DPGEN_NM, " -C --undefined-only ", obj));
  ASSERT_EQ(ustatus, 0) << undefined;
  EXPECT_NE(undefined.find("dpgen::runtime::run_program<double>"),
            std::string::npos)
      << undefined;

  // -A prefixes every line with "<archive>:<member>:".
  EXPECT_EQ(driver_symbols(cat("-A ", DPGEN_LIB_ENGINE), ":engine.cpp.o:"),
            "");
}

TEST(DriverInstantiation, DoubleProgramIncludesOnlyTheProgramHeader) {
  // A double program compiles its geometry against runtime/program.hpp
  // alone: nothing of the launcher, the driver, the run state, the
  // observability layer or the message-passing layer is in its include
  // closure, and of the standard library only <cstdint>, <cstring> and
  // their internals.
  problems::Problem p = problems::bandit2(8);
  tiling::TilingModel model(p.spec);
  GenOptions gen;
  gen.passes = PassPipeline::parse("full");
  gen.track_max = true;
  const std::string src = testing::TempDir() + "/dpgen_closure_gen.cpp";
  write_program(model, src, gen);
  auto [status, deps] =
      run_command(cat(codegen_test::compiler_command("-O1"), " -M ", src));
  ASSERT_EQ(status, 0) << deps;
  const std::string root = DPGEN_SRC_DIR;
  EXPECT_NE(deps.find(root + "/runtime/program.hpp"), std::string::npos)
      << deps;
  for (const std::string& banned :
       {root + "/obs/", root + "/minimpi/", root + "/runtime/driver.hpp",
        root + "/runtime/launch.hpp", root + "/runtime/checkpoint.hpp",
        root + "/runtime/tile_table.hpp", root + "/runtime/run_state.hpp",
        root + "/support/vec.hpp", root + "/support/checked.hpp"})
    EXPECT_EQ(deps.find(banned), std::string::npos) << banned << " in\n"
                                                    << deps;
  std::istringstream in(deps);
  int listed = 0;
  for (std::string dep; in >> dep;) {
    ++listed;
    for (const std::string header :
         {"/map", "/set", "/mutex", "/memory", "/string", "/functional",
          "/stdexcept", "/vector"})
      EXPECT_FALSE(dep.size() >= header.size() &&
                   dep.compare(dep.size() - header.size(), header.size(),
                               header) == 0)
          << dep << " in the closure of a double program";
    EXPECT_EQ(dep.find("bits/stl_vector.h"), std::string::npos)
        << dep << " in the closure of a double program";
  }
  EXPECT_GT(listed, 3) << deps;
  // What the compiler front end reads: ~1.9k preprocessed lines, where a
  // <vector>-based runtime header made 22.6k.
  auto [estatus, preprocessed] =
      run_command(cat(codegen_test::compiler_command("-O1"), " -E ", src));
  ASSERT_EQ(estatus, 0) << preprocessed;
  EXPECT_LT(std::count(preprocessed.begin(), preprocessed.end(), '\n'), 3000);
}

TEST(EndToEnd, GlobalCodeIncludesTheHeadersItUses) {
  // The program provides only <cstdint> and <cstring>: user global code
  // that calls std::sqrt includes <cmath> itself.
  spec::ProblemSpec s;
  s.name("roots")
      .params({"N"})
      .vars({"x"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .dep("r1", {1})
      .load_balance({"x"})
      .tile_widths({4})
      .global_code("#include <cmath>\n"
                   "static double root_of_next(double v) {\n"
                   "  return std::sqrt(v + 1.0);\n"
                   "}\n")
      .center_code("V[loc] = is_valid_r1 ? root_of_next(V[loc_r1]) : 0.0;");
  tiling::TilingModel model(std::move(s));
  const std::string src_path = testing::TempDir() + "/dpgen_roots_gen.cpp";
  write_program(model, src_path);
  auto prog = compile_program(src_path, "roots");
  ASSERT_TRUE(prog.ok) << prog.log;
  auto [status, out] = run_command(cat(prog.binary, " 30 --ranks=2"));
  ASSERT_EQ(status, 0) << out;
  double f = 0.0;  // f(30)
  for (int x = 29; x >= 0; --x) f = std::sqrt(f + 1.0);
  EXPECT_DOUBLE_EQ(parse_result(out, {0}), f) << out;
}

TEST(EndToEnd, GeneratedNegativeDepProgram) {
  tiling::TilingModel model(forward_spec());
  std::string src_path = testing::TempDir() + "/dpgen_neg_gen.cpp";
  codegen::GenOptions gen_opt;
  gen_opt.probes = {{20}};
  write_program(model, src_path, gen_opt);
  auto prog = compile_program(src_path, "neg");
  ASSERT_TRUE(prog.ok) << prog.log;
  auto [status, out] = run_command(cat(prog.binary, " 20 --ranks=2"));
  ASSERT_EQ(status, 0) << out;
  // f(x) = f(x-2) + 1, f(0)=f(1)=1 -> f(20) = 11.
  EXPECT_DOUBLE_EQ(parse_result(out, {20}), 11.0) << out;
}

TEST(EndToEnd, GeneratedSeamCarvingWithMixedLateralDeps) {
  // Strip-tiled trellis with mixed-sign lateral dependencies and a helper
  // function in the user's global code.
  problems::Problem p = problems::seam_carving(6);
  tiling::TilingModel model(p.spec);
  std::string src_path = testing::TempDir() + "/dpgen_seam_gen.cpp";
  write_program(model, src_path);
  auto prog = compile_program(src_path, "seam");
  ASSERT_TRUE(prog.ok) << prog.log;
  IntVec params{14, 17};
  auto [status, out] = run_command(
      cat(prog.binary, " ", params[0], " ", params[1], " --ranks=2"));
  ASSERT_EQ(status, 0) << out;
  EXPECT_DOUBLE_EQ(parse_result(out, p.objective), p.reference(params))
      << out;
}

TEST(EndToEnd, GeneratedAffineAlignmentLayeredDimension) {
  // 3-dimensional problem whose third dimension is the Gotoh matrix
  // index: nine template vectors with mixed z-offsets, phantom-edge
  // pruning, and per-layer center code in the generated program.
  std::string a = problems::random_dna(10, 51), b = problems::random_dna(12, 52);
  problems::Problem p = problems::align_affine(a, b, 1.0, 3.0, 1.0, 5);
  tiling::TilingModel model(p.spec);
  std::string src_path = testing::TempDir() + "/dpgen_affine_gen.cpp";
  write_program(model, src_path);
  auto prog = compile_program(src_path, "affine");
  ASSERT_TRUE(prog.ok) << prog.log;
  IntVec params = problems::sequence_params({a, b});
  auto [status, out] = run_command(cat(prog.binary, " ", params[0], " ",
                                       params[1], " --ranks=2 --threads=2"));
  ASSERT_EQ(status, 0) << out;
  EXPECT_NEAR(parse_result(out, p.objective), p.reference(params), 1e-12)
      << out;
}

TEST(EndToEnd, GeneratedCoinChangeWithLongRangeEdges) {
  // Denominations larger than the tile width make dependencies cross
  // several tiles: exercises multi-tile edges in generated pack/unpack.
  problems::Problem p = problems::coin_change({1, 15, 16}, 4);
  tiling::TilingModel model(p.spec);
  std::string src_path = testing::TempDir() + "/dpgen_coins_gen.cpp";
  write_program(model, src_path);
  auto prog = compile_program(src_path, "coins");
  ASSERT_TRUE(prog.ok) << prog.log;
  auto [status, out] = run_command(cat(prog.binary, " 30 --ranks=2"));
  ASSERT_EQ(status, 0) << out;
  EXPECT_DOUBLE_EQ(parse_result(out, {0}), 2.0) << out;
}

TEST(EndToEnd, GeneratedSmithWatermanTracksGlobalMax) {
  // Local alignment: the generated program's objective is the maximum
  // over every location (GenOptions::track_max -> "MAX (...) = v" line).
  std::string a = "TTTTCACACTTTT", b = "GGGGCACACGGGG";
  problems::Problem p = problems::smith_waterman(a, b, 2.0, -1.0, -1.0, 4);
  tiling::TilingModel model(p.spec);
  GenOptions gopt;
  gopt.track_max = true;
  std::string src_path = testing::TempDir() + "/dpgen_sw_gen.cpp";
  write_program(model, src_path, gopt);
  auto prog = compile_program(src_path, "sw");
  ASSERT_TRUE(prog.ok) << prog.log;
  IntVec params = problems::sequence_params({a, b});
  auto [status, out] = run_command(cat(prog.binary, " ", params[0], " ",
                                       params[1], " --ranks=2 --threads=2"));
  ASSERT_EQ(status, 0) << out;
  auto pos = out.find("MAX (");
  ASSERT_NE(pos, std::string::npos) << out;
  double value = std::strtod(
      out.c_str() + out.find(" = ", pos) + 3, nullptr);
  EXPECT_DOUBLE_EQ(value, p.reference(params)) << out;
}

TEST(EndToEnd, GeneratedFixedSizeProblemWithoutParameters) {
  // Problems without input parameters are legal (fixed-size spaces); the
  // generated program takes no positional arguments.
  spec::ProblemSpec s;
  s.name("fixed")
      .vars({"x"})
      .constraint("x >= 0")
      .constraint("x <= 12")
      .dep("r1", {1})
      .load_balance({"x"})
      .tile_widths({4})
      .center_code("V[loc] = is_valid_r1 ? V[loc_r1] + 1.0 : 1.0;");
  tiling::TilingModel model(std::move(s));
  std::string src_path = testing::TempDir() + "/dpgen_fixed_gen.cpp";
  write_program(model, src_path);
  auto prog = compile_program(src_path, "fixed");
  ASSERT_TRUE(prog.ok) << prog.log;
  auto [status, out] = run_command(cat(prog.binary, " --ranks=2"));
  ASSERT_EQ(status, 0) << out;
  EXPECT_DOUBLE_EQ(parse_result(out, {0}), 13.0) << out;
}

TEST(EndToEnd, GeneratedProgramRejectsBadUsage) {
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  std::string src_path = testing::TempDir() + "/dpgen_usage_gen.cpp";
  GenOptions gen;
  gen.passes = PassPipeline::parse("full");
  write_program(model, src_path, gen);
  auto prog = compile_program(src_path, "usage");
  ASSERT_TRUE(prog.ok) << prog.log;
  auto [status, out] = run_command(prog.binary);  // missing N
  EXPECT_NE(status, 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  // Every flag the usage line names is one the launcher's parser takes.
  const std::string usage = out.substr(out.find("usage:"));
  int flags = 0;
  for (std::size_t at = usage.find("[--"); at != std::string::npos;
       at = usage.find("[--", at + 1)) {
    std::string flag = usage.substr(at + 1, usage.find(']', at) - at - 1);
    ++flags;
    if (flag == "--passes=none|full") continue;  // the program's own flag
    // A placeholder value: the first choice, or any valid number or path.
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      const std::string value = flag.substr(eq + 1);
      flag = flag.substr(0, eq + 1) +
             (value.find('|') != std::string::npos
                  ? value.substr(0, value.find('|'))
                  : std::string("1"));
    }
    runtime::LaunchOptions options;
    EXPECT_TRUE(options.parse_flag(flag)) << flag << " in " << usage;
  }
  EXPECT_GE(flags, 15) << usage;
  // Hostile values are a dpgen error with exit status 2, never a crash.
  for (const char* args : {" 5 --ranks=0", " 5 --threads=0", " five",
                           " 5 --capacity=-1", " 5 --ranks=2x", " 5 --bogus",
                           " 5 --passes=bogus", " 5 6"}) {
    auto [bad_status, bad_out] = run_command(prog.binary + args);
    ASSERT_TRUE(WIFEXITED(bad_status)) << args << ": " << bad_out;
    EXPECT_EQ(WEXITSTATUS(bad_status), 2) << args << ": " << bad_out;
    EXPECT_NE(bad_out.find("dpgen: error:"), std::string::npos) << bad_out;
  }
}

// ---- tile buffers are not cleared between tiles --------------------------

// A generated program reuses one tile buffer per worker without clearing
// it.  --poison-buffers refills it with NaN before every tile, so a read
// of a cell neither unpacked nor computed for that tile changes the
// result.  Each family must print the same RESULT/MAX lines, byte for
// byte, with and without poisoning.
struct PoisonCase {
  spec::ProblemSpec spec;
  GenOptions gen;
  std::string args;
};

std::string param_args(const IntVec& params) {
  std::string args;
  for (Int v : params) args += cat(" ", v);
  return args;
}

PoisonCase poison_case(const std::string& name) {
  if (name == "bandit2") return {problems::bandit2(4).spec, {}, " 11"};
  if (name == "bandit2_full") {
    // Under canonicalize, full tiles (4*sum(t) + 12 <= N) take the
    // constant-bound pack, unpack and center nests; N = 23 has full and
    // partial tiles.
    GenOptions gen;
    gen.passes = PassPipeline::parse("full");
    return {problems::bandit2(4).spec, gen, " 23"};
  }
  if (name == "delayed_bandit")
    return {problems::bandit2_delay(3).spec, {}, " 6"};
  if (name == "lcs") {
    std::vector<std::string> seqs{"ABCBDAB", "BDCABA"};
    return {problems::lcs(seqs, 4).spec, {},
            param_args(problems::sequence_params(seqs))};
  }
  if (name == "msa3") {
    std::vector<std::string> seqs{problems::random_dna(9, 7),
                                  problems::random_dna(8, 8),
                                  problems::random_dna(10, 9)};
    return {problems::msa(seqs, 4).spec, {},
            param_args(problems::sequence_params(seqs))};
  }
  if (name == "seam") return {problems::seam_carving(6).spec, {}, " 14 17"};
  if (name == "affine") {
    std::string a = problems::random_dna(10, 51);
    std::string b = problems::random_dna(12, 52);
    return {problems::align_affine(a, b, 1.0, 3.0, 1.0, 5).spec, {},
            param_args(problems::sequence_params({a, b}))};
  }
  if (name == "coins")
    return {problems::coin_change({1, 15, 16}, 4).spec, {}, " 30"};
  if (name == "negative_dep") {
    GenOptions gen;
    gen.probes = {{20}};
    return {forward_spec(), gen, " 20"};
  }
  if (name == "smith_waterman") {
    std::string a = "TTTTCACACTTTT", b = "GGGGCACACGGGG";
    GenOptions gen;
    gen.track_max = true;
    return {problems::smith_waterman(a, b, 2.0, -1.0, -1.0, 4).spec, gen,
            param_args(problems::sequence_params({a, b}))};
  }
  ADD_FAILURE() << "unknown poison case " << name;
  return {};
}

class EndToEndPoison : public testing::TestWithParam<const char*> {};

TEST_P(EndToEndPoison, PoisonedBuffersLeaveResultsUnchanged) {
  const std::string name = GetParam();
  PoisonCase c = poison_case(name);
  tiling::TilingModel model(std::move(c.spec));
  std::string src_path =
      testing::TempDir() + "/dpgen_poison_" + name + "_gen.cpp";
  write_program(model, src_path, c.gen);
  auto prog = compile_program(src_path, "poison_" + name);
  ASSERT_TRUE(prog.ok) << prog.log;
  const std::string run = prog.binary + c.args + " --ranks=2 --threads=2";
  auto [status, out] = run_command(run);
  ASSERT_EQ(status, 0) << out;
  auto [pstatus, pout] = run_command(run + " --poison-buffers");
  ASSERT_EQ(pstatus, 0) << pout;
  const std::string plain = result_lines(out);
  ASSERT_FALSE(plain.empty()) << out;
  EXPECT_EQ(plain.find("nan"), std::string::npos) << plain;
  EXPECT_EQ(result_lines(pout), plain);
}

INSTANTIATE_TEST_SUITE_P(
    Families, EndToEndPoison,
    testing::Values("bandit2", "bandit2_full", "lcs", "delayed_bandit", "msa3", "seam",
                    "affine", "coins", "negative_dep", "smith_waterman"),
    [](const testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---- owner table ---------------------------------------------------------

// Three ranks over two load-balance spaces: bandit2's triangle of
// (s1, f1) cells leaves holes in its bounding box, and the negative-
// dependency family walks its 1-D box upward.  The run must match the
// oracle, the report's per-rank tiles must add up to the run's tiles, and
// every tile must execute on the rank the balancer gives it.
void expect_owner_table_holds(const tiling::TilingModel& model,
                              const GenOptions& gen, const std::string& tag,
                              const IntVec& params, const IntVec& point,
                              double expected) {
  std::string src_path = testing::TempDir() + "/dpgen_" + tag + "_gen.cpp";
  write_program(model, src_path, gen);
  auto prog = compile_program(src_path, tag);
  ASSERT_TRUE(prog.ok) << prog.log;
  const std::string report =
      testing::TempDir() + "/dpgen_" + tag + "_report.json";
  const std::string trace = testing::TempDir() + "/dpgen_" + tag + "_trace.json";
  std::string run = cat(prog.binary, param_args(params), " --ranks=3");
  if (obs::kTraceCompiled) run += cat(" --report=", report, " --trace=", trace);
  auto [status, out] = run_command(run);
  ASSERT_EQ(status, 0) << out;
  EXPECT_NEAR(parse_result(out, point), expected, 1e-12) << out;
  const auto at = out.find("STATS tiles=");
  ASSERT_NE(at, std::string::npos) << out;
  const long long tiles = std::atoll(out.c_str() + at + 12);
  EXPECT_EQ(tiles, model.total_tiles(params));
  if (!obs::kTraceCompiled) return;

  auto read_json = [](const std::string& path) {
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << "generated program wrote no " << path;
    std::stringstream ss;
    ss << f.rdbuf();
    return json::parse(ss.str());
  };
  auto doc = read_json(report);
  const auto& ranks = doc->at("load_balance").at("ranks").as_array();
  ASSERT_EQ(ranks.size(), 3u);
  tiling::LoadBalancer balancer(model, params, 3);
  long long sum = 0;
  for (const auto& r : ranks) {
    const int rank = static_cast<int>(r->at("rank").as_number());
    EXPECT_GT(r->at("tiles").as_number(), 0) << "rank " << rank;
    // The emitted lb-cell counts cut the same work as the model's.
    EXPECT_EQ(r->at("predicted_work").as_number(),
              static_cast<double>(balancer.owned_work(rank)))
        << "rank " << rank;
    sum += static_cast<long long>(r->at("tiles").as_number());
  }
  EXPECT_EQ(sum, tiles);

  long long checked = 0;
  auto trace_doc = read_json(trace);
  for (const auto& ev : trace_doc->at("traceEvents").as_array()) {
    if (ev->at("ph").as_string() != "X" ||
        ev->at("cat").as_string() != "tile_execute")
      continue;
    // args.tile reads "(t0, t1, ...)".
    std::string text = ev->at("args").at("tile").as_string();
    for (char& ch : text)
      if (ch == '(' || ch == ')' || ch == ',') ch = ' ';
    std::istringstream in(text);
    IntVec tile;
    for (Int v; in >> v;) tile.push_back(v);
    EXPECT_EQ(static_cast<int>(ev->at("pid").as_number()),
              balancer.owner(tile))
        << vec_to_string(tile);
    ++checked;
  }
  EXPECT_EQ(checked, tiles);
  std::remove(report.c_str());
  std::remove(trace.c_str());
}

TEST(EndToEnd, OwnerTableOverSimplexWithHolesAtThreeRanks) {
  problems::Problem p = problems::bandit2(4);
  tiling::TilingModel model(p.spec);
  const IntVec params{23};
  expect_owner_table_holds(model, {}, "owner_bandit2", params, p.objective,
                           p.reference(params));
}

TEST(EndToEnd, OwnerTableOverNegativeDepSpaceAtThreeRanks) {
  tiling::TilingModel model(forward_spec());
  GenOptions gen;
  gen.probes = {{40}};
  // f(40) = f(38) + 1 = ... = f(0) + 20 = 21.
  expect_owner_table_holds(model, gen, "owner_neg", {40}, {40}, 21.0);
}

}  // namespace
}  // namespace dpgen::codegen
