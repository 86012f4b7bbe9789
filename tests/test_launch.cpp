// Tests for the launcher (runtime/launch.hpp) that every executor runs
// through: the generated programs' flag parser (in process, no compiler),
// option validation, and per-run process state — a throwing run must not
// leave tracing on, and the metrics document covers only its own run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "engine/engine.hpp"
#include "obs/msgtrace.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "problems/problems.hpp"
#include "runtime/launch.hpp"
#include "support/json.hpp"

namespace dpgen::runtime {
namespace {

TEST(Launch, ParseFlagAcceptsEveryGeneratedProgramFlag) {
  LaunchOptions o;
  for (const char* flag :
       {"--ranks=3", "--threads=2", "--capacity=8", "--shards=4",
        "--policy=level", "--trace=t.json", "--metrics=m.json",
        "--report=r.json", "--msgtrace=-", "--monitor=ev.jsonl",
        "--monitor-interval=0.01", "--profile=p.json", "--profile-hz=50",
        "--profile-cputime", "--poison-buffers"})
    EXPECT_TRUE(o.parse_flag(flag)) << flag;
  EXPECT_EQ(o.ranks, 3);
  EXPECT_EQ(o.threads, 2);
  EXPECT_EQ(o.mailbox_capacity, 8u);
  EXPECT_EQ(o.queue_shards, 4);
  EXPECT_EQ(o.policy, PriorityPolicy::kLevelSet);
  EXPECT_EQ(o.trace_json_path, "t.json");
  EXPECT_EQ(o.metrics_json_path, "m.json");
  EXPECT_EQ(o.report_json_path, "r.json");
  EXPECT_EQ(o.msgtrace_json_path, "-");
  EXPECT_EQ(o.monitor_path, "ev.jsonl");
  EXPECT_DOUBLE_EQ(o.monitor_interval, 0.01);
  EXPECT_EQ(o.profile_path, "p.json");
  EXPECT_DOUBLE_EQ(o.profile_hz, 50.0);
  EXPECT_TRUE(o.profile_force_cputime);
  EXPECT_TRUE(o.poison_buffers);
  EXPECT_TRUE(o.parse_flag("--policy=column"));
  EXPECT_EQ(o.policy, PriorityPolicy::kColumnMajor);
}

TEST(Launch, ParseFlagLeavesOtherArgumentsToTheCaller) {
  LaunchOptions o;
  for (const char* arg : {"--bogus", "--passes=none", "--ranks", "ranks=2",
                          "--ranksx=2", "--profile-cputime=1", "--poison-buffers=1",
                          "-", ""})
    EXPECT_FALSE(o.parse_flag(arg)) << arg;
}

TEST(Launch, ParseFlagRejectsMalformedValues) {
  for (const char* flag :
       {"--ranks=0", "--ranks=-2", "--ranks=abc", "--ranks=", "--ranks=2x",
        "--ranks= 2", "--ranks=+2", "--ranks=99999999999", "--threads=0",
        "--shards=0", "--capacity=-1", "--capacity=1e3",
        "--capacity=99999999999999999999", "--policy=diagonal",
        "--monitor-interval=fast", "--monitor-interval=",
        "--profile-hz=nan", "--profile-hz=1e999", "--trace=", "--report=",
        "--monitor=", "--profile="}) {
    LaunchOptions o;
    EXPECT_THROW(o.parse_flag(flag), Error) << flag;
  }
}

TEST(Launch, StrictIntegerParameters) {
  EXPECT_EQ(parse_int("-1", "parameter"), -1);
  EXPECT_EQ(parse_int("40", "parameter"), 40);
  for (const char* junk : {"", "abc", "4O", "12 ", " 12", "0x10", "1.5"})
    EXPECT_THROW(parse_int(junk, "parameter"), Error) << junk;
}

struct SmallLcs {
  std::vector<std::string> seqs{"ACGTTGCA", "AGTCCGA"};
  problems::Problem problem = problems::lcs(seqs, 3);
  tiling::TilingModel model{problem.spec};
  IntVec params = problems::sequence_params(seqs);
};

TEST(Launch, RejectsNonPositiveCountsFromEngineCallers) {
  SmallLcs lcs;
  auto expect_rejected = [&](auto tweak) {
    engine::EngineOptions o;
    tweak(o);
    EXPECT_THROW(engine::run(lcs.model, lcs.params, lcs.problem.kernel, o),
                 Error);
  };
  expect_rejected([](engine::EngineOptions& o) { o.ranks = 0; });
  expect_rejected([](engine::EngineOptions& o) { o.threads = 0; });
  expect_rejected([](engine::EngineOptions& o) { o.queue_shards = 0; });
  expect_rejected([](engine::EngineOptions& o) { o.monitor_interval = 0; });
  expect_rejected([](engine::EngineOptions& o) {
    o.monitor_path = "-";
    o.monitor_interval = -1;
  });
}

TEST(Launch, ThrowingRunRestoresProcessWideTracing) {
  SmallLcs lcs;
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::MsgTracer& msg_tracer = obs::MsgTracer::instance();
  const bool trace_before = tracer.enabled();
  const bool msg_before = msg_tracer.enabled();

  engine::EngineOptions o;
  o.ranks = 2;
  o.threads = 2;
  o.stall_timeout_seconds = 30.0;
  o.trace_json_path = testing::TempDir() + "/dpgen_launch_throw.trace.json";
  o.msgtrace_json_path = "-";
  o.profile_path = "-";
  std::atomic<int> cells{0};
  engine::CenterFn boom = [&](const engine::Cell& c) {
    if (cells.fetch_add(1) == 20) throw std::runtime_error("kernel failed");
    lcs.problem.kernel(c);
  };
  EXPECT_ANY_THROW(engine::run(lcs.model, lcs.params, boom, o));

  EXPECT_EQ(tracer.enabled(), trace_before);
  EXPECT_EQ(msg_tracer.enabled(), msg_before);
  EXPECT_FALSE(obs::Profiler::instance().active());
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Launch, MetricsDocumentCoversOnlyItsOwnRun) {
  const std::string path =
      testing::TempDir() + "/dpgen_launch_metrics.json";
  SmallLcs lcs;
  engine::EngineOptions o;
  o.ranks = 2;
  o.metrics_json_path = path;
  (void)engine::run(lcs.model, lcs.params, lcs.problem.kernel, o);

  // A larger second run: its document must count its own tiles only.
  problems::Problem bigger = problems::lcs(lcs.seqs, 2);
  tiling::TilingModel model(bigger.spec);
  engine::EngineResult second =
      engine::run(model, lcs.params, bigger.kernel, o);
  const long long tiles = second.total(&RunStats::tiles_executed);
  ASSERT_EQ(tiles, model.total_tiles(lcs.params));

  json::ValuePtr doc = json::parse(read_text(path));
  EXPECT_EQ(doc->at("counters").at("runtime.tiles_executed").as_number(),
            static_cast<double>(tiles));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dpgen::runtime
