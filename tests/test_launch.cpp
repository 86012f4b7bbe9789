// Tests for the launcher (runtime/launch.hpp) that every executor runs
// through: the generated programs' flag parser (in process, no compiler),
// option validation, and run scoping — a throwing run must not leave the
// profiler armed, each document covers only its own run, and two runs at
// once in one process keep separate documents.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "engine/engine.hpp"
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

TEST(Launch, UsageNamesEveryParsedFlag) {
  // usage() and parse_flag() read one flag table: every "[--name=VALUE]"
  // the usage line shows parses once VALUE is filled in, and every flag
  // parse_flag takes above appears in it.
  const std::string usage = LaunchOptions::usage();
  std::vector<std::string> shown;
  for (std::size_t at = usage.find("[--"); at != std::string::npos;
       at = usage.find("[--", at + 1)) {
    std::string flag = usage.substr(at + 1, usage.find(']', at) - at - 1);
    shown.push_back(flag.substr(0, flag.find('=')));
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      const std::string value = flag.substr(eq + 1);
      flag = flag.substr(0, eq + 1) +
             (value.find('|') != std::string::npos
                  ? value.substr(0, value.find('|'))
                  : std::string("1"));
    }
    LaunchOptions o;
    EXPECT_TRUE(o.parse_flag(flag)) << flag;
  }
  EXPECT_EQ(shown.size(), 15u) << usage;
  for (const char* name :
       {"--ranks", "--threads", "--capacity", "--shards", "--policy",
        "--trace", "--metrics", "--report", "--msgtrace", "--monitor",
        "--monitor-interval", "--profile", "--profile-hz",
        "--profile-cputime", "--poison-buffers"})
    EXPECT_NE(std::find(shown.begin(), shown.end(), name), shown.end())
        << name << " missing from " << usage;
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

TEST(Launch, ThrowingRunStopsTheProfiler) {
  SmallLcs lcs;
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
  EXPECT_FALSE(obs::Profiler::instance().active());

  // The next, untraced run in the same process is unaffected.
  engine::EngineOptions plain;
  plain.ranks = 2;
  plain.threads = 2;
  plain.probes = {lcs.problem.objective};
  engine::EngineResult r =
      engine::run(lcs.model, lcs.params, lcs.problem.kernel, plain);
  EXPECT_EQ(r.at(lcs.problem.objective), lcs.problem.reference(lcs.params));
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
  o.threads = 2;
  o.metrics_json_path = path;
  auto read_doc = [&] { return json::parse(read_text(path)); };
  (void)engine::run(lcs.model, lcs.params, lcs.problem.kernel, o);

  // A larger second run: its document must count its own tiles only.
  problems::Problem bigger = problems::lcs(lcs.seqs, 1);
  tiling::TilingModel model(bigger.spec);
  engine::EngineResult second =
      engine::run(model, lcs.params, bigger.kernel, o);
  const long long tiles = second.total(&RunStats::tiles_executed);
  ASSERT_EQ(tiles, model.total_tiles(lcs.params));
  EXPECT_EQ(
      read_doc()->at("counters").at("runtime.tiles_executed").as_number(),
      static_cast<double>(tiles));

  // A small run after the large one: exact counters, and a ready-queue
  // high-water mark that is its own, not the large run's deeper queue.
  engine::EngineResult small =
      engine::run(lcs.model, lcs.params, lcs.problem.kernel, o);
  json::ValuePtr doc = read_doc();
  auto counter = [&](const char* name) {
    return static_cast<long long>(doc->at("counters").at(name).as_number());
  };
  EXPECT_EQ(counter("runtime.tiles_executed"),
            lcs.model.total_tiles(lcs.params));
  EXPECT_EQ(counter("runtime.local_edges"),
            small.total(&RunStats::local_edges));
  EXPECT_EQ(counter("runtime.remote_edges"),
            small.total(&RunStats::remote_edges));
  long long messages = 0, peak_ready = 0;
  for (const RunStats& s : small.rank_stats) {
    messages += static_cast<long long>(s.messages_sent);
    peak_ready = std::max(peak_ready, s.table.peak_ready_tiles);
  }
  EXPECT_EQ(counter("comm.messages_sent"), messages);
  EXPECT_LE(doc->at("gauges").at("runtime.ready_queue_depth").at("max")
                .as_number(),
            static_cast<double>(peak_ready));
  std::remove(path.c_str());
}

/// One traced engine LCS run writing every document to its own paths.
struct DocumentedRun {
  std::vector<std::string> seqs;
  problems::Problem problem;
  tiling::TilingModel model;
  IntVec params;
  engine::EngineOptions opt;
  engine::EngineResult result;

  DocumentedRun(std::size_t length, unsigned seed, const std::string& tag)
      : seqs{problems::random_dna(length, seed),
             problems::random_dna(length, seed + 1)},
        problem(problems::lcs(seqs, 8)),
        model(problem.spec),
        params(problems::sequence_params(seqs)) {
    const std::string base = testing::TempDir() + "/dpgen_concurrent_" + tag;
    opt.ranks = 2;
    opt.threads = 2;
    opt.probes = {problem.objective};
    opt.trace_json_path = base + ".trace.json";
    opt.report_json_path = base + ".report.json";
    opt.msgtrace_json_path = base + ".msgtrace.json";
    opt.metrics_json_path = base + ".metrics.json";
  }

  void run() { result = engine::run(model, params, problem.kernel, opt); }

  /// Checks every document against this run's own totals.
  void check() const {
    SCOPED_TRACE(opt.trace_json_path);
    const long long total_tiles = model.total_tiles(params);
    EXPECT_EQ(result.at(problem.objective), problem.reference(params));
    EXPECT_EQ(result.total(&RunStats::tiles_executed), total_tiles);

    long long tile_events = 0;
    json::ValuePtr trace = json::parse(read_text(opt.trace_json_path));
    for (const auto& ev : trace->at("traceEvents").as_array())
      if (ev->at("ph").as_string() == "X" &&
          ev->at("cat").as_string() == "tile_execute")
        ++tile_events;
    EXPECT_EQ(tile_events, total_tiles);

    long long report_tiles = 0;
    json::ValuePtr report = json::parse(read_text(opt.report_json_path));
    for (const auto& rank : report->at("load_balance").at("ranks").as_array())
      report_tiles += static_cast<long long>(rank->at("tiles").as_number());
    EXPECT_EQ(report_tiles, total_tiles);

    json::ValuePtr metrics = json::parse(read_text(opt.metrics_json_path));
    EXPECT_EQ(metrics->at("counters").at("runtime.tiles_executed").as_number(),
              static_cast<double>(total_tiles));

    // Every remote edge is one traced message, and each is delivered once.
    const long long remote = result.total(&RunStats::remote_edges);
    EXPECT_GT(remote, 0) << "a 2-rank run must cross the rank boundary";
    json::ValuePtr mt = json::parse(read_text(opt.msgtrace_json_path));
    EXPECT_EQ(mt->at("messages").as_number(), static_cast<double>(remote));
    const json::Value& cons = mt->at("conservation");
    EXPECT_EQ(cons.at("total_sent").as_number(), static_cast<double>(remote));
    EXPECT_EQ(cons.at("total_delivered").as_number(),
              static_cast<double>(remote));
    EXPECT_EQ(cons.at("total_gaps").as_number(), 0.0);
    EXPECT_EQ(cons.at("total_repeats").as_number(), 0.0);
    EXPECT_TRUE(cons.at("accounted").boolean);
  }

  void remove_documents() const {
    for (const std::string* p :
         {&opt.trace_json_path, &opt.report_json_path,
          &opt.msgtrace_json_path, &opt.metrics_json_path})
      std::remove(p->c_str());
  }
};

TEST(LaunchConcurrency, TwoRunsKeepSeparateDocuments) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  DocumentedRun a(48, 11, "a");
  DocumentedRun b(80, 23, "b");
  ASSERT_NE(a.model.total_tiles(a.params), b.model.total_tiles(b.params));
  std::thread ta([&] { a.run(); });
  std::thread tb([&] { b.run(); });
  ta.join();
  tb.join();
  a.check();
  b.check();
  a.remove_documents();
  b.remove_documents();
}

}  // namespace
}  // namespace dpgen::runtime
