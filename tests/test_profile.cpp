// Tests for the continuous-profiling stack (obs/profile.hpp): frame-stack
// encoding, sampler start/stop churn (the TSan flavour runs this under
// instrumentation), the forced perf-unavailable fallback, document
// round-trips against tools/profile_schema.json, the synthetic sim
// profile, and the schema registry.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "obs/profile.hpp"
#include "problems/problems.hpp"
#include "sim/cluster_sim.hpp"
#include "support/json.hpp"
#include "support/json_schema.hpp"
#include "tiling/model.hpp"

namespace dpgen::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> validate_against_schema(const std::string& text) {
  json::ValuePtr schema = json::parse(read_file(DPGEN_PROFILE_SCHEMA));
  json::ValuePtr doc = json::parse(text);
  return json::validate(*schema, *doc);
}

int count_svgs(const std::string& html) {
  int n = 0;
  for (std::size_t at = html.find("<svg"); at != std::string::npos;
       at = html.find("<svg", at + 1))
    ++n;
  return n;
}

/// A tiny profiled engine run; returns the collected document.
ProfileDoc profiled_engine_run(bool force_cputime,
                               const std::string& path = "-") {
  problems::Problem p = problems::lcs(
      {problems::random_dna(192, 1), problems::random_dna(192, 2)});
  tiling::TilingModel model(p.spec);
  engine::EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;
  opt.profile_path = path;
  opt.profile_hz = 1997.0;
  opt.profile_force_cputime = force_cputime;
  engine::EngineResult r = engine::run(model, {192, 192}, p.kernel, opt);
  EXPECT_TRUE(r.profile.has_value());
  return r.profile ? *r.profile : ProfileDoc{};
}

// ---- frame-stack encoding -------------------------------------------------

TEST(ProfileFrames, EncodingPushPop) {
  // Frames compile out with the spans.
  if (!kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  // Frames only exist while a profiled run is active (g_frames_on).
  ProfileOptions popt;
  popt.problem = "frames";
  Profiler::instance().start(popt);
  Profiler::instance().thread_enter(/*rank=*/0, /*thread=*/0);
  profdetail::ThreadProfState* st = profdetail::t_state;
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->stack.load(), 0u);

  const auto enc = [](Phase p) {
    return static_cast<std::uint32_t>(static_cast<int>(p) + 1);
  };
  const bool a = profile_frame_push(Phase::kPack);
  EXPECT_TRUE(a);
  EXPECT_EQ(st->stack.load(), enc(Phase::kPack));
  const bool b = profile_frame_push(Phase::kSend);
  EXPECT_TRUE(b);
  EXPECT_EQ(st->stack.load(), (enc(Phase::kPack) << 5) | enc(Phase::kSend));
  profile_frame_pop(b);
  EXPECT_EQ(st->stack.load(), enc(Phase::kPack));
  profile_frame_pop(a);
  EXPECT_EQ(st->stack.load(), 0u);

  // ScopedSpan pushes/pops the same stack.
  {
    ScopedSpan span(Phase::kTileExecute, nullptr);
    EXPECT_EQ(st->stack.load(), enc(Phase::kTileExecute));
  }
  EXPECT_EQ(st->stack.load(), 0u);

  // Deep nesting sheds the oldest frames instead of corrupting the top.
  std::vector<bool> pushed;
  for (int i = 0; i < 10; ++i)
    pushed.push_back(profile_frame_push(Phase::kPoll));
  EXPECT_EQ(st->stack.load() & 31u, enc(Phase::kPoll));
  for (int i = 9; i >= 0; --i) profile_frame_pop(pushed[static_cast<std::size_t>(i)]);

  Profiler::instance().thread_exit();
  (void)Profiler::instance().stop();
  // Frames are off outside a run: push reports "not pushed".
  EXPECT_FALSE(profile_frame_push(Phase::kPack));
}

// ---- sampler churn --------------------------------------------------------

// Start/stop churn with worker threads registering, pushing frames and
// running tile windows while SIGPROF fires at the maximum rate.  The TSan
// build flavour runs this test under instrumentation; any race between
// the signal handler, the hot path and stop() aggregation trips it.
TEST(ProfileSampler, StartStopChurn) {
  for (int round = 0; round < 5; ++round) {
    ProfileOptions popt;
    popt.hz = 10000.0;
    popt.problem = "churn";
    popt.force_cputime = true;
    Profiler::instance().start(popt);
    EXPECT_TRUE(Profiler::instance().active());

    std::vector<std::thread> workers;
    for (int w = 0; w < 3; ++w) {
      workers.emplace_back([w] {
        ProfileThreadScope scope(true, /*rank=*/w, /*thread=*/0);
        for (int i = 0; i < 2000; ++i) {
          const bool f = profile_frame_push(Phase::kTileExecute);
          const bool win = Profiler::tile_begin();
          Profiler::tile_end(win, /*cells=*/4, /*exec_ns=*/500);
          profile_frame_pop(f);
        }
      });
    }
    for (auto& t : workers) t.join();

    ProfileDoc doc = Profiler::instance().stop();
    EXPECT_FALSE(Profiler::instance().active());
    EXPECT_EQ(doc.threads.size(), 3u);
    ASSERT_EQ(doc.families.size(), 1u);
    EXPECT_EQ(doc.families[0].tiles, 3 * 2000);
    EXPECT_EQ(doc.families[0].cells, 3 * 2000 * 4);
    EXPECT_GT(doc.families[0].sampled_tiles, 0);
    // Sub-2us tiles stretch the stride, so windows cover a subset.
    EXPECT_LE(doc.families[0].sampled_tiles, doc.families[0].tiles);
    EXPECT_EQ(doc.samples_dropped, 0);
  }
}

TEST(ProfileSampler, SecondStartWhileActiveThrows) {
  ProfileOptions popt;
  popt.problem = "nested";
  Profiler::instance().start(popt);
  EXPECT_THROW(Profiler::instance().start(popt), std::exception);
  (void)Profiler::instance().stop();
}

// ---- forced cputime fallback ---------------------------------------------

// The perf-unavailable degradation path: force_cputime runs every counter
// group on CLOCK_THREAD_CPUTIME and the emitted document must say so and
// still validate against the schema.
TEST(ProfileFallback, ForcedCputimeDocValidates) {
  const std::string path = testing::TempDir() + "/prof_cputime.json";
  ProfileDoc doc = profiled_engine_run(/*force_cputime=*/true, path);
  EXPECT_EQ(doc.counters, "cputime");
  EXPECT_EQ(doc.sampler, "timer");
  const std::vector<std::string> errors =
      validate_against_schema(read_file(path));
  for (const auto& e : errors) ADD_FAILURE() << "schema violation " << e;
  // In cputime mode the "cycles" channel carries thread CPU ns and there
  // are no instruction counts, so IPC must report as absent (0).
  ASSERT_EQ(doc.families.size(), 1u);
  EXPECT_EQ(doc.families[0].instructions, 0u);
  EXPECT_EQ(doc.families[0].ipc(), 0.0);
}

// ---- engine end-to-end ----------------------------------------------------

TEST(ProfileEngine, EndToEndDocument) {
  ProfileDoc doc = profiled_engine_run(/*force_cputime=*/false);
  EXPECT_EQ(doc.source, "engine");
  EXPECT_EQ(doc.problem, "lcs2");  // the spec's name for 2-sequence LCS
  EXPECT_EQ(doc.nranks, 2);
  EXPECT_EQ(doc.threads.size(), 4u);  // 2 ranks x 2 threads

  ASSERT_EQ(doc.families.size(), 1u);
  const ProfileFamily& fam = doc.families[0];
  EXPECT_GT(fam.tiles, 0);
  EXPECT_GT(fam.cells, 0);
  EXPECT_GT(fam.exec_seconds, 0.0);
  EXPECT_GT(fam.sampled_tiles, 0);
  EXPECT_GT(fam.cycles, 0u);
  // The engine stamps the Ehrhart prediction; lcs counts every cell, so
  // measured == predicted exactly.
  EXPECT_EQ(static_cast<double>(fam.cells), fam.predicted_cells);

  // Sample accounting: per-phase buckets + untraced == total, and the
  // folded stacks cover exactly the attributed samples.
  long long bucketed = doc.samples_untraced;
  for (long long c : doc.phase_samples) bucketed += c;
  EXPECT_EQ(bucketed, doc.samples_total);
  long long folded = 0;
  for (const FoldedStack& f : doc.folded) folded += f.samples;
  EXPECT_EQ(folded, doc.samples_total);
  long long per_thread = 0;
  for (const ProfileThreadSummary& t : doc.threads) per_thread += t.samples;
  EXPECT_EQ(per_thread, doc.samples_total);

  if (kTraceCompiled) {
    // With span hooks compiled in, samples land in phases, not untraced
    // (a handful of untraced samples between spans is fine).
    EXPECT_LE(doc.samples_untraced, doc.samples_total);
  } else {
    // Without spans there are no frames: everything is untraced.
    EXPECT_EQ(doc.samples_untraced, doc.samples_total);
  }
}

TEST(ProfileEngine, JsonRoundTrip) {
  ProfileDoc doc = profiled_engine_run(/*force_cputime=*/true);
  const std::string text = profile_json(doc);
  const std::vector<std::string> errors = validate_against_schema(text);
  for (const auto& e : errors) ADD_FAILURE() << "schema violation " << e;

  ProfileDoc back = parse_profile_doc(*json::parse(text));
  EXPECT_EQ(back.source, doc.source);
  EXPECT_EQ(back.problem, doc.problem);
  EXPECT_EQ(back.params, doc.params);
  EXPECT_EQ(back.counters, doc.counters);
  EXPECT_EQ(back.sampler, doc.sampler);
  EXPECT_EQ(back.nranks, doc.nranks);
  EXPECT_EQ(back.samples_total, doc.samples_total);
  EXPECT_EQ(back.samples_untraced, doc.samples_untraced);
  EXPECT_EQ(back.phase_samples, doc.phase_samples);
  ASSERT_EQ(back.folded.size(), doc.folded.size());
  for (std::size_t i = 0; i < doc.folded.size(); ++i) {
    EXPECT_EQ(back.folded[i].stack, doc.folded[i].stack);
    EXPECT_EQ(back.folded[i].samples, doc.folded[i].samples);
  }
  ASSERT_EQ(back.families.size(), doc.families.size());
  for (std::size_t i = 0; i < doc.families.size(); ++i) {
    EXPECT_EQ(back.families[i].name, doc.families[i].name);
    EXPECT_EQ(back.families[i].tiles, doc.families[i].tiles);
    EXPECT_EQ(back.families[i].cells, doc.families[i].cells);
    EXPECT_EQ(back.families[i].cycles, doc.families[i].cycles);
    EXPECT_EQ(back.families[i].predicted_cells,
              doc.families[i].predicted_cells);
  }

  // The flame view renders without data: one SVG per rank.
  const std::string html = profile_flame_html(doc);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_EQ(count_svgs(html), doc.nranks);
}

// A run can end before a rank's first timer tick (the 192x192 lcs above
// can take under a millisecond of wall time per thread); the view must
// still draw every rank, with an empty icicle for the unsampled ones.
TEST(ProfileFlame, UnsampledRanksGetEmptyIcicles) {
  ProfileDoc doc;
  doc.problem = "flame";
  doc.nranks = 3;
  EXPECT_EQ(count_svgs(profile_flame_html(doc)), 3);

  doc.folded.push_back({"rank1;tile_execute", 4});
  doc.samples_total = 4;
  const std::string html = profile_flame_html(doc);
  EXPECT_EQ(count_svgs(html), 3);
  EXPECT_NE(html.find("rank0 (0 samples)"), std::string::npos);
  EXPECT_NE(html.find("rank1 (4 samples)"), std::string::npos);
  EXPECT_NE(html.find("rank2 (0 samples)"), std::string::npos);
  EXPECT_NE(html.find("<title>tile_execute: 4 samples</title>"),
            std::string::npos);
}

// ---- synthetic sim profile ------------------------------------------------

TEST(ProfileSim, SyntheticDocValidates) {
  problems::Problem p = problems::lcs(
      {problems::random_dna(96, 1), problems::random_dna(96, 2)});
  tiling::TilingModel model(p.spec);
  sim::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.cores_per_node = 2;
  const std::string path = testing::TempDir() + "/prof_sim.json";
  cfg.profile_path = path;
  cfg.problem_name = "lcs";
  sim::SimResult r = sim::simulate(model, {96, 96}, cfg);
  EXPECT_GT(r.makespan, 0.0);

  const std::string text = read_file(path);
  const std::vector<std::string> errors = validate_against_schema(text);
  for (const auto& e : errors) ADD_FAILURE() << "schema violation " << e;

  ProfileDoc doc = parse_profile_doc(*json::parse(text));
  EXPECT_EQ(doc.source, "sim");
  EXPECT_EQ(doc.counters, "sim");
  EXPECT_EQ(doc.sampler, "synthetic");
  EXPECT_EQ(doc.nranks, 4);
  // The synthetic rate auto-scales so short DES makespans still resolve.
  EXPECT_GT(doc.samples_total, 0);
  EXPECT_GT(doc.phase_samples[static_cast<int>(Phase::kTileExecute)], 0);
  ASSERT_EQ(doc.families.size(), 1u);
  EXPECT_EQ(doc.families[0].name, "lcs");
  EXPECT_GT(doc.families[0].predicted_cells, 0.0);
}

// ---- schema registry ------------------------------------------------------

TEST(SchemaRegistry, KnownIdsResolve) {
  EXPECT_EQ(json::schema_file_for("dpgen.profile.v1"),
            "profile_schema.json");
  EXPECT_EQ(json::schema_file_for("dpgen.report.v1"), "report_schema.json");
  EXPECT_EQ(json::schema_file_for("dpgen.bench.v1"), "bench_schema.json");
  EXPECT_EQ(json::schema_file_for("dpgen.events.v1"), "events_schema.json");
  EXPECT_EQ(json::schema_file_for("dpgen.checkpoint.v1"),
            "checkpoint_schema.json");
  EXPECT_EQ(json::schema_file_for("dpgen.unknown.v9"), "");
}

}  // namespace
}  // namespace dpgen::obs
