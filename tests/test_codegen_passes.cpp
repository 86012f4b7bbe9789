// Tests for the codegen optimization pass pipeline (codegen/passes.hpp):
// pipeline parsing, layout-plan geometry, the lifted center-loop IR, the
// structure of the optimized emission, and the differential contract —
// every pass subset produces byte-identical RESULT/MAX lines and matches
// the serial reference.

#include <gtest/gtest.h>

#include <sstream>

#include "codegen/generator.hpp"
#include "codegen/passes.hpp"
#include "codegen_util.hpp"
#include "problems/problems.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::codegen {
namespace {

using codegen_test::compile_program;
using codegen_test::parse_result;
using codegen_test::run_command;

// ---- pipeline parsing -----------------------------------------------------

TEST(CodegenPassesPipeline, ParseSpellings) {
  EXPECT_FALSE(PassPipeline::parse("").any());
  EXPECT_FALSE(PassPipeline::parse("none").any());

  PassPipeline full = PassPipeline::parse("full");
  EXPECT_TRUE(full.canonicalize && full.unroll && full.layout);
  EXPECT_EQ(full.unroll_factor, 4);
  EXPECT_TRUE(PassPipeline::parse("all").any());

  PassPipeline sub = PassPipeline::parse("canonicalize,unroll:8");
  EXPECT_TRUE(sub.canonicalize);
  EXPECT_TRUE(sub.unroll);
  EXPECT_FALSE(sub.layout);
  EXPECT_EQ(sub.unroll_factor, 8);
  EXPECT_TRUE(sub.loop_passes());

  PassPipeline lay = PassPipeline::parse("layout");
  EXPECT_TRUE(lay.any());
  EXPECT_FALSE(lay.loop_passes());

  EXPECT_EQ(full.to_string(), "canonicalize,unroll:4,layout");
  EXPECT_EQ(PassPipeline{}.to_string(), "none");
  EXPECT_EQ(sub.names(), (std::vector<std::string>{"canonicalize",
                                                   "unroll:8"}));
}

TEST(CodegenPassesPipeline, RejectsBadInput) {
  EXPECT_THROW(PassPipeline::parse("vectorize"), Error);
  EXPECT_THROW(PassPipeline::parse("canonicalize,"), Error);
  EXPECT_THROW(PassPipeline::parse("unroll:0"), Error);
  EXPECT_THROW(PassPipeline::parse("unroll:17"), Error);
  EXPECT_THROW(PassPipeline::parse("unroll:x"), Error);
}

// ---- layout plan ----------------------------------------------------------

TEST(CodegenPassesLayout, PadsInnermostExtentToAlignment) {
  problems::Problem p = problems::trellis(10);
  tiling::TilingModel model(p.spec);
  LayoutPlan id = LayoutPlan::make(model, false);
  LayoutPlan padded = LayoutPlan::make(model, true);

  // Identity plan: extent 10 + 2 lateral ghosts = 12, not a multiple of 8.
  EXPECT_FALSE(id.padded);
  EXPECT_EQ(id.extents.back(), 12);
  EXPECT_TRUE(padded.padded);
  EXPECT_EQ(padded.extents.back(), 16);
  EXPECT_EQ(padded.extents.back() % kLayoutAlign, 0);

  // Ghost origins are geometry, not layout: unchanged by padding.
  EXPECT_EQ(padded.ghost_lo, id.ghost_lo);

  // Strides re-derived from the padded extents, innermost stride 1.
  const auto d = padded.extents.size();
  EXPECT_EQ(padded.strides[d - 1], 1);
  Int expect = 1;
  for (std::size_t k = d; k-- > 0;) {
    EXPECT_EQ(padded.strides[k], expect) << "dim " << k;
    expect *= padded.extents[k];
  }
  EXPECT_EQ(padded.buffer_size, expect);
  EXPECT_GT(padded.buffer_size, id.buffer_size);

  // Derived constants stay consistent with the strides.
  Int lc = 0;
  for (std::size_t k = 0; k < d; ++k)
    lc += padded.strides[k] * padded.ghost_lo[k];
  EXPECT_EQ(padded.loc_const, lc);
  ASSERT_EQ(padded.dep_offsets.size(), 3u);
  const auto& deps = model.problem().deps();
  for (std::size_t j = 0; j < deps.size(); ++j) {
    Int off = 0;
    for (std::size_t k = 0; k < d; ++k)
      off += padded.strides[k] * deps[j].vec[k];
    EXPECT_EQ(padded.dep_offsets[j], off) << deps[j].name;
  }
}

TEST(CodegenPassesLayout, OneDimensionalSpacesAreNotPadded) {
  problems::Problem p = problems::coin_change({1, 3}, 5);
  tiling::TilingModel model(p.spec);
  LayoutPlan padded = LayoutPlan::make(model, true);
  // No outer stride exists, so padding would only waste buffer (and wire
  // format must stay put): the plan is the identity.
  EXPECT_FALSE(padded.padded);
  EXPECT_EQ(padded.buffer_size, LayoutPlan::make(model, false).buffer_size);
}

// ---- lifted IR ------------------------------------------------------------

TEST(CodegenPassesIR, LiftsDeduplicatedChecks) {
  problems::Problem p = problems::trellis(8);
  tiling::TilingModel model(p.spec);
  CenterLoopIR ir = CenterLoopIR::lift(model);

  // Three dependencies share the t <= T check; the lateral s-bounds are
  // unique to up_left / up_right: three deduplicated checks in all.
  const auto& checks = model.validity_checks();
  ASSERT_EQ(checks.size(), 3u);
  ASSERT_EQ(ir.rendered.size(), 3u);
  for (const std::string& r : ir.rendered) EXPECT_FALSE(r.empty());
  for (int j = 0; j < 3; ++j) EXPECT_FALSE(model.dep_checks(j).empty());
  int pos = 0, neg = 0, zero = 0;
  for (const tiling::ValidityCheck& c : checks)
    (c.inner_coef > 0 ? pos : c.inner_coef < 0 ? neg : zero)++;
  // s - 1 >= 0 (inner coefficient +1), S - s - 1 >= 0 (-1), and the
  // invariant t-check (0).
  EXPECT_EQ(pos, 1);
  EXPECT_EQ(neg, 1);
  EXPECT_EQ(zero, 1);
}

TEST(CodegenPassesIR, IvdepLegality) {
  // Every trellis dependency moves in t: the innermost loop carries no
  // memory dependence.
  EXPECT_TRUE(ivdep_legal(tiling::TilingModel(problems::trellis(8).spec)));
  EXPECT_TRUE(ivdep_legal(tiling::TilingModel(problems::downhill(4, 8).spec)));
  // A 1-D problem's dependencies move only in the innermost dimension.
  EXPECT_FALSE(
      ivdep_legal(tiling::TilingModel(problems::coin_change({1, 3}, 5).spec)));
}

// ---- emission structure ---------------------------------------------------

TEST(CodegenPassesSource, OptimizedEmissionStructure) {
  problems::Problem p = problems::trellis(16);
  tiling::TilingModel model(p.spec);
  GenOptions opt;
  opt.passes = PassPipeline::parse("full");
  std::string src = generate_program(model, opt);

  // Run-time toggle and dual emission.
  EXPECT_NE(src.find("static bool dp_g_loop_passes = true;"),
            std::string::npos);
  EXPECT_NE(src.find("if (dp_g_loop_passes)"), std::string::npos);
  EXPECT_NE(src.find("--passes="), std::string::npos);
  // Canonicalize: hoisted row base, split bounds, vectorization marker.
  EXPECT_NE(src.find("dp_row_i_s"), std::string::npos);
  EXPECT_NE(src.find("dp_sa_i_s"), std::string::npos);
  EXPECT_NE(src.find("dp_sb_i_s"), std::string::npos);
  EXPECT_NE(src.find("// dpgen:vec-inner"), std::string::npos);
  EXPECT_NE(src.find("#pragma GCC ivdep"), std::string::npos);
  // Unroll on the vector-eligible interior is pragma-based.
  EXPECT_NE(src.find("#pragma GCC unroll 4"), std::string::npos);
  // The report epilogue declares the pipeline.
  EXPECT_NE(src.find("\"canonicalize\""), std::string::npos);
  EXPECT_NE(src.find("\"unroll:4\""), std::string::npos);
  EXPECT_NE(src.find("\"layout\""), std::string::npos);
}

TEST(CodegenPassesSource, DefaultEmissionHasNoPassArtifacts) {
  problems::Problem p = problems::trellis(16);
  tiling::TilingModel model(p.spec);
  std::string src = generate_program(model);
  EXPECT_EQ(src.find("dp_g_loop_passes"), std::string::npos);
  EXPECT_EQ(src.find("dpgen:vec-inner"), std::string::npos);
  EXPECT_EQ(src.find("#pragma GCC"), std::string::npos);
  EXPECT_EQ(src.find("--passes="), std::string::npos);
  EXPECT_EQ(src.find("dp_tile_full"), std::string::npos);
}

TEST(CodegenPassesSource, CanonicalizeSplitsFullTiles) {
  problems::Problem p = problems::bandit2(8);
  tiling::TilingModel model(p.spec);
  GenOptions opt;
  opt.passes = PassPipeline::parse("canonicalize");
  std::string src = generate_program(model, opt);
  // One predicate, used by pack, unpack and execute_tile.
  EXPECT_NE(src.find("static inline bool dp_tile_full("), std::string::npos);
  EXPECT_NE(src.find("- 28LL) >= 0"), std::string::npos);
  EXPECT_NE(src.find("dp_tile_full(P_, dp_t) && "), std::string::npos);
  std::size_t uses = 0;
  for (std::size_t at = src.find("const bool dp_full = dp_g_loop_passes && ");
       at != std::string::npos;
       at = src.find("const bool dp_full = dp_g_loop_passes && ", at + 1))
    ++uses;
  EXPECT_EQ(uses, 2u);
  // Unroll-only keeps the unspecialised nests.
  opt.passes = PassPipeline::parse("unroll");
  EXPECT_EQ(generate_program(model, opt).find("dp_tile_full"),
            std::string::npos);
}

TEST(CodegenPassesSource, ManualUnrollWithoutCanonicalize) {
  problems::Problem p = problems::trellis(16);
  tiling::TilingModel model(p.spec);
  GenOptions opt;
  opt.passes = PassPipeline::parse("unroll:3");
  std::string src = generate_program(model, opt);
  // Without canonicalize the loop keeps per-cell guards and stays scalar:
  // source-level unrolling with the dp_base counter and a remainder loop.
  EXPECT_NE(src.find("dp_base_i_s"), std::string::npos);
  EXPECT_EQ(src.find("#pragma GCC unroll"), std::string::npos);
  EXPECT_EQ(src.find("dp_sa_i_s"), std::string::npos);
}

TEST(CodegenPassesSource, IvdepOmittedWhenIllegal) {
  // 1-D coin change: every dependency is innermost-only, so the optimized
  // emission must not claim independence.
  problems::Problem p = problems::coin_change({1, 3}, 5);
  tiling::TilingModel model(p.spec);
  GenOptions opt;
  opt.passes = PassPipeline::parse("canonicalize");
  std::string src = generate_program(model, opt);
  EXPECT_EQ(src.find("#pragma GCC ivdep"), std::string::npos);
  EXPECT_NE(src.find("dpgen:vec-inner"), std::string::npos);
}

// ---- differential: byte-identical results across subsets ------------------

/// The deterministic result lines (RESULT/MAX/STATS tiles+work counters,
/// not timings) of a run.
std::string result_lines(const std::string& out) {
  std::istringstream ss(out);
  std::string line, acc;
  while (std::getline(ss, line)) {
    if (line.rfind("RESULT ", 0) == 0 || line.rfind("MAX ", 0) == 0)
      acc += line + "\n";
  }
  return acc;
}

struct BuiltVariant {
  std::string passes;
  codegen_test::CompiledProgram prog;
};

std::vector<BuiltVariant> build_variants(const tiling::TilingModel& model,
                                         const std::vector<std::string>& subsets,
                                         const std::string& tag) {
  std::vector<BuiltVariant> out;
  for (const std::string& sub : subsets) {
    GenOptions opt;
    opt.passes = PassPipeline::parse(sub);
    std::string src_path =
        cat(testing::TempDir(), "/dpgen_passes_", tag, "_", out.size(),
            ".cpp");
    write_program(model, src_path, opt);
    BuiltVariant v;
    v.passes = sub;
    v.prog = compile_program(src_path, cat("passes_", tag, "_", out.size()));
    EXPECT_TRUE(v.prog.ok) << sub << ":\n" << v.prog.log;
    out.push_back(std::move(v));
  }
  return out;
}

TEST(CodegenPassesEndToEnd, TrellisSubsetsBitIdentical) {
  problems::Problem p = problems::trellis(6);
  tiling::TilingModel model(p.spec);
  auto variants = build_variants(
      model,
      {"none", "canonicalize", "unroll:2", "canonicalize,unroll:3", "layout",
       "full"},
      "trellis");

  const IntVec params{13, 29};
  const std::string args = cat(" ", params[0], " ", params[1]);
  std::string baseline;
  for (const auto& v : variants) {
    if (!v.prog.ok) continue;
    auto [status, out] =
        run_command(cat(v.prog.binary, args, " --ranks=2 --threads=2"));
    ASSERT_EQ(status, 0) << v.passes << "\n" << out;
    std::string results = result_lines(out);
    EXPECT_FALSE(results.empty()) << out;
    // Exact double round-trip: every subset prints the same bytes.
    if (baseline.empty())
      baseline = results;
    else
      EXPECT_EQ(results, baseline) << "passes=" << v.passes;
    EXPECT_DOUBLE_EQ(parse_result(out, p.objective), p.reference(params))
        << "passes=" << v.passes;
  }

  // The run-time kill switch on the full binary reproduces the plain loop.
  const auto& full = variants.back();
  if (full.prog.ok) {
    auto [status, out] =
        run_command(cat(full.prog.binary, args, " --passes=none"));
    ASSERT_EQ(status, 0) << out;
    EXPECT_EQ(result_lines(out), baseline);
    auto [bad_status, bad_out] =
        run_command(cat(full.prog.binary, args, " --passes=bogus"));
    EXPECT_NE(bad_status, 0);
    EXPECT_NE(bad_out.find("--passes"), std::string::npos) << bad_out;
  }
}

TEST(CodegenPassesEndToEnd, DownhillFullBitIdentical) {
  problems::Problem p = problems::downhill(3, 7);
  tiling::TilingModel model(p.spec);
  auto variants = build_variants(model, {"none", "full"}, "downhill");
  const IntVec params{17, 23};
  const std::string args = cat(" ", params[0], " ", params[1]);
  std::string baseline;
  for (const auto& v : variants) {
    if (!v.prog.ok) continue;
    auto [status, out] =
        run_command(cat(v.prog.binary, args, " --ranks=2 --threads=2"));
    ASSERT_EQ(status, 0) << v.passes << "\n" << out;
    std::string results = result_lines(out);
    if (baseline.empty())
      baseline = results;
    else
      EXPECT_EQ(results, baseline) << "passes=" << v.passes;
    EXPECT_DOUBLE_EQ(parse_result(out, p.objective), p.reference(params))
        << "passes=" << v.passes;
  }
}

TEST(CodegenPassesEndToEnd, Bandit2FullTilesBitIdentical) {
  // w = 8: a tile is full when 8*sum(t) + 28 <= N and its checks hold on
  // the box when 8*sum(t) + 29 <= N.  N = 20 has no full tile, N = 36 has
  // full tiles on the boundary where the checks fail, N = 61 is general.
  problems::Problem p = problems::bandit2(8);
  tiling::TilingModel model(p.spec);
  auto variants = build_variants(model, {"none", "full"}, "bandit2");
  for (Int n : {20, 36, 61}) {
    const std::string args = cat(" ", n, " --ranks=2 --threads=2");
    std::string baseline;
    for (const auto& v : variants) {
      if (!v.prog.ok) continue;
      for (const char* flag : {"", " --passes=none"}) {
        if (v.passes == "none" && *flag) continue;
        auto [status, out] = run_command(cat(v.prog.binary, args, flag));
        ASSERT_EQ(status, 0) << v.passes << flag << "\n" << out;
        std::string results = result_lines(out);
        if (baseline.empty())
          baseline = results;
        else
          EXPECT_EQ(results, baseline) << "N=" << n << " " << v.passes << flag;
        EXPECT_DOUBLE_EQ(parse_result(out, p.objective), p.reference({n}))
            << "N=" << n << " " << v.passes << flag;
      }
    }
  }
}

TEST(CodegenPassesEndToEnd, SmithWatermanMaxTrackingBitIdentical) {
  // Max tracking reads `loc` through the plan-driven mapping function on
  // both variants; the MAX line must agree byte-for-byte too.
  std::string a = "TTGACACGTT", b = "GGCACACAGG";
  problems::Problem p = problems::smith_waterman(a, b, 2.0, -1.0, -1.0, 4);
  tiling::TilingModel model(p.spec);
  std::vector<std::string> outs;
  for (const char* sub : {"none", "full"}) {
    GenOptions opt;
    opt.track_max = true;
    opt.passes = PassPipeline::parse(sub);
    std::string src_path =
        cat(testing::TempDir(), "/dpgen_passes_sw_", outs.size(), ".cpp");
    write_program(model, src_path, opt);
    auto prog = compile_program(src_path, cat("passes_sw_", outs.size()));
    ASSERT_TRUE(prog.ok) << sub << ":\n" << prog.log;
    IntVec params = problems::sequence_params({a, b});
    auto [status, out] = run_command(
        cat(prog.binary, " ", params[0], " ", params[1], " --threads=2"));
    ASSERT_EQ(status, 0) << out;
    EXPECT_NE(out.find("MAX ("), std::string::npos) << out;
    outs.push_back(result_lines(out));
  }
  EXPECT_EQ(outs[0], outs[1]);
}

}  // namespace
}  // namespace dpgen::codegen
