// Tests for the performance-attribution analyzer (obs/analysis.hpp): a
// hand-constructed trace whose critical path and phase attribution are
// known exactly, conservation invariants on a real multi-rank engine run
// (per-rank phase buckets sum to the rank's traced thread time, the comm
// matrix agrees with the global counters), the simulator path through the
// same analyzer, and the JSON rendering against tools/report_schema.json.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "engine/engine.hpp"
#include "json_util.hpp"
#include "obs/analysis.hpp"
#include "sim/cluster_sim.hpp"
#include "support/json_schema.hpp"
#include "tiling/balance.hpp"

namespace dpgen {
namespace {

using obs::AnalysisInput;
using obs::AnalysisReport;
using obs::Phase;
using obs::Span;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Span make_span(Phase phase, int rank, int thread, std::int64_t start_ns,
               std::int64_t end_ns, const IntVec& tile = {}) {
  Span s;
  s.phase = phase;
  s.rank = static_cast<std::int16_t>(rank);
  s.thread = static_cast<std::int16_t>(thread);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.ncoord = static_cast<std::uint8_t>(tile.size());
  for (std::size_t k = 0; k < tile.size(); ++k)
    s.coord[k] = static_cast<std::int32_t>(tile[k]);
  return s;
}

// A 2-rank, 4-tile chain with every nanosecond placed by hand:
//
//   rank 0, thread 0: exec {0} [0,100)  pack [100,130)  send [130,150)
//                     exec {1} [150,250)
//   rank 1, thread 0: idle [0,230)  unpack [230,260)  exec {2} [260,360)
//                     <untraced 20 ns>  exec {3} [380,480)
//
// With offsets {{-1}} (tile t depends on tile t-1) the critical path is
// {0} -> {1} -> {2} -> {3} and the attribution must be exactly:
// compute 400, pack 30, send 20, unpack 10, other 20 — summing to the
// 480 ns makespan.
AnalysisInput hand_built_input() {
  AnalysisInput in;
  in.spans = {
      make_span(Phase::kTileExecute, 0, 0, 0, 100, {0}),
      make_span(Phase::kPack, 0, 0, 100, 130),
      make_span(Phase::kSend, 0, 0, 130, 150),
      make_span(Phase::kTileExecute, 0, 0, 150, 250, {1}),
      make_span(Phase::kIdle, 1, 0, 0, 230),
      make_span(Phase::kUnpack, 1, 0, 230, 260),
      make_span(Phase::kTileExecute, 1, 0, 260, 360, {2}),
      make_span(Phase::kTileExecute, 1, 0, 380, 480, {3}),
  };
  in.nranks = 2;
  in.edge_offsets = {{-1}};
  in.predicted_work = {300.0, 100.0};
  in.bytes_matrix = {{0, 64}, {0, 0}};
  in.messages_matrix = {{0, 2}, {0, 0}};
  in.source = "trace";
  in.problem = "chain";
  in.params = {4};
  return in;
}

constexpr double kNs = 1e-9;
constexpr double kEps = 1e-12;  // well below one attributed nanosecond

TEST(Analysis, HandBuiltCriticalPathIsFoundExactly) {
  AnalysisReport r = obs::analyze(hand_built_input());

  EXPECT_TRUE(r.warnings.empty())
      << "unexpected warning: " << r.warnings.front();
  EXPECT_EQ(r.nranks, 2);
  EXPECT_NEAR(r.makespan_s, 480 * kNs, kEps);

  ASSERT_EQ(r.critical_path.size(), 4u);
  EXPECT_EQ(r.critical_path[0].tile, (IntVec{0}));
  EXPECT_EQ(r.critical_path[1].tile, (IntVec{1}));
  EXPECT_EQ(r.critical_path[2].tile, (IntVec{2}));
  EXPECT_EQ(r.critical_path[3].tile, (IntVec{3}));
  EXPECT_EQ(r.critical_path[0].rank, 0);
  EXPECT_EQ(r.critical_path[3].rank, 1);
  EXPECT_NEAR(r.critical_path[0].gap_before_s, 0.0, kEps);
  EXPECT_NEAR(r.critical_path[1].gap_before_s, 50 * kNs, kEps);
  EXPECT_NEAR(r.critical_path[2].gap_before_s, 10 * kNs, kEps);
  EXPECT_NEAR(r.critical_path[3].gap_before_s, 20 * kNs, kEps);

  EXPECT_NEAR(r.path_attribution.compute, 400 * kNs, kEps);
  EXPECT_NEAR(r.path_attribution.pack, 30 * kNs, kEps);
  EXPECT_NEAR(r.path_attribution.send, 20 * kNs, kEps);
  EXPECT_NEAR(r.path_attribution.unpack, 10 * kNs, kEps);
  EXPECT_NEAR(r.path_attribution.other, 20 * kNs, kEps);
  EXPECT_NEAR(r.path_attribution.idle, 0.0, kEps);
  // Conservation: the buckets sum to the makespan, coverage is 1.
  EXPECT_NEAR(r.path_attribution.total(), r.makespan_s, kEps);
  EXPECT_NEAR(r.path_coverage, 1.0, 1e-9);
}

TEST(Analysis, HandBuiltLoadBalanceAudit) {
  AnalysisReport r = obs::analyze(hand_built_input());
  ASSERT_EQ(r.ranks.size(), 2u);

  const obs::RankAudit& r0 = r.ranks[0];
  EXPECT_EQ(r0.tiles, 2);
  EXPECT_NEAR(r0.measured_compute_s, 200 * kNs, kEps);
  EXPECT_NEAR(r0.wall_s, 250 * kNs, kEps);
  EXPECT_NEAR(r0.thread_seconds, 250 * kNs, kEps);
  EXPECT_NEAR(r0.phases.compute, 200 * kNs, kEps);
  EXPECT_NEAR(r0.phases.pack, 30 * kNs, kEps);
  EXPECT_NEAR(r0.phases.send, 20 * kNs, kEps);
  EXPECT_NEAR(r0.phases.total(), r0.thread_seconds, kEps);

  const obs::RankAudit& r1 = r.ranks[1];
  EXPECT_EQ(r1.tiles, 2);
  EXPECT_NEAR(r1.phases.idle, 230 * kNs, kEps);
  EXPECT_NEAR(r1.phases.unpack, 30 * kNs, kEps);
  EXPECT_NEAR(r1.phases.other, 20 * kNs, kEps);  // the untraced stretch
  EXPECT_NEAR(r1.phases.total(), r1.thread_seconds, kEps);

  // Ehrhart audit: predicted 300/100 vs measured 200/200 ns of compute.
  EXPECT_NEAR(r0.predicted_share, 0.75, kEps);
  EXPECT_NEAR(r0.measured_share, 0.5, kEps);
  EXPECT_NEAR(r0.share_error, -0.25, kEps);
  EXPECT_NEAR(r1.share_error, 0.25, kEps);
  EXPECT_NEAR(r.predicted_imbalance, 1.5, kEps);
  EXPECT_NEAR(r.measured_imbalance, 1.0, kEps);

  // Comm matrix passes through with totals.
  EXPECT_EQ(r.total_bytes, 64u);
  EXPECT_EQ(r.total_messages, 2u);
}

TEST(Analysis, NestedSpansAttributeToTheMostSpecificPhase) {
  // A poll loop nested inside an idle stretch must count as idle, not
  // double-count: the window is 100 ns and stays 100 ns.
  AnalysisInput in;
  in.spans = {
      make_span(Phase::kIdle, 0, 0, 0, 100),
      make_span(Phase::kPoll, 0, 0, 20, 40),
      make_span(Phase::kPoll, 0, 0, 60, 80),
      make_span(Phase::kTileExecute, 0, 0, 100, 200, {0}),
  };
  in.nranks = 1;
  AnalysisReport r = obs::analyze(in);
  ASSERT_EQ(r.ranks.size(), 1u);
  EXPECT_NEAR(r.ranks[0].phases.idle, 100 * kNs, kEps);
  EXPECT_NEAR(r.ranks[0].phases.poll, 0.0, kEps);
  EXPECT_NEAR(r.ranks[0].phases.total(), 200 * kNs, kEps);
}

TEST(Analysis, DroppedSpansProduceAWarning) {
  AnalysisInput in = hand_built_input();
  in.spans_dropped = 3;
  AnalysisReport r = obs::analyze(in);
  EXPECT_EQ(r.spans_dropped, 3u);
  ASSERT_FALSE(r.warnings.empty());
  EXPECT_NE(r.warnings.front().find("dropped"), std::string::npos);
  // The warning also reaches both renderings.
  EXPECT_NE(obs::report_text(r).find("WARNING"), std::string::npos);
  EXPECT_NE(obs::report_json(r).find("\"spans_dropped\":3"),
            std::string::npos);
}

TEST(Analysis, MissingInputsDegradeWithWarnings) {
  AnalysisInput in = hand_built_input();
  in.edge_offsets.clear();
  in.predicted_work.clear();
  AnalysisReport r = obs::analyze(in);
  // Without offsets the path degenerates to the last-finishing tile.
  ASSERT_EQ(r.critical_path.size(), 1u);
  EXPECT_EQ(r.critical_path[0].tile, (IntVec{3}));
  // The whole window is still attributed (gap before + the tile itself).
  EXPECT_NEAR(r.path_attribution.total(), r.makespan_s, kEps);
  EXPECT_GE(r.warnings.size(), 2u);

  AnalysisInput empty;
  empty.source = "trace";
  AnalysisReport r2 = obs::analyze(empty);
  EXPECT_EQ(r2.nranks, 0);
  ASSERT_FALSE(r2.warnings.empty());
}

TEST(Analysis, ReportJsonParsesAndValidatesAgainstSchema) {
  AnalysisReport r = obs::analyze(hand_built_input());
  auto doc = json::parse(obs::report_json(r));
  EXPECT_EQ(doc->at("schema").as_string(), "dpgen.report.v1");
  EXPECT_EQ(doc->at("nranks").as_number(), 2);
  EXPECT_EQ(doc->at("critical_path").at("length").as_number(), 4);
  EXPECT_EQ(doc->at("comm_matrix").at("total_bytes").as_number(), 64);

  auto schema = json::parse(read_file(DPGEN_REPORT_SCHEMA));
  auto errors = json::validate(*schema, *doc);
  for (const auto& e : errors) ADD_FAILURE() << e;

  // The validator actually rejects: a report missing a required section
  // must not pass.
  auto broken = json::parse(R"({"schema":"dpgen.report.v1"})");
  EXPECT_FALSE(json::validate(*schema, *broken).empty());
}

// End-to-end invariants on a real 2-rank x 2-thread engine run with the
// report hook enabled (EngineOptions::report_json_path implies tracing).
TEST(Analysis, EngineRunReportInvariants) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";

  spec::ProblemSpec s;
  s.name("paths")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("y >= 0")
      .constraint("y <= N")
      .dep("r1", {1, 0})
      .dep("r2", {0, 1})
      .load_balance({"x", "y"})
      .tile_widths({4, 4})
      .center_code("V[loc] = 0.0;");
  tiling::TilingModel model(s);
  const IntVec params{15};

  engine::EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;
  std::string report_path = testing::TempDir() + "/dpgen_report.json";
  std::string metrics_path =
      testing::TempDir() + "/dpgen_report_metrics.json";
  opt.report_json_path = report_path;
  opt.metrics_json_path = metrics_path;

  auto center = [](const engine::Cell& c) {
    double v = 0.0;
    int any = 0;
    if (c.valid[0]) { v += c.V[c.loc_dep[0]]; any = 1; }
    if (c.valid[1]) { v += c.V[c.loc_dep[1]]; any = 1; }
    c.V[c.loc] = any ? v : 1.0;
  };
  auto result = engine::run(model, params, center, opt);

  ASSERT_TRUE(result.report.has_value());
  const AnalysisReport& r = *result.report;
  EXPECT_EQ(r.source, "engine");
  EXPECT_EQ(r.problem, "paths");
  EXPECT_EQ(r.params, params);
  EXPECT_EQ(r.nranks, 2);
  EXPECT_EQ(r.spans_dropped, 0u);
  EXPECT_GT(r.makespan_s, 0.0);

  // Critical path: non-trivial, chained through dependencies, and its
  // attribution explains the makespan (acceptance bound: within 5%).
  ASSERT_GE(r.critical_path.size(), 2u);
  for (std::size_t i = 1; i < r.critical_path.size(); ++i)
    EXPECT_LE(r.critical_path[i - 1].end_s, r.critical_path[i].end_s);
  EXPECT_NEAR(r.path_attribution.total() / r.makespan_s, 1.0, 0.05);

  // Load balance: every owned tile accounted, the per-rank phase buckets
  // sum to the rank's traced thread-seconds (conservation).
  tiling::LoadBalancer balancer(model, params, opt.ranks, opt.balance);
  ASSERT_EQ(r.ranks.size(), 2u);
  long long tiles = 0;
  double total_predicted = 0.0;
  for (const obs::RankAudit& audit : r.ranks) {
    tiles += audit.tiles;
    total_predicted += audit.predicted_work;
    EXPECT_GT(audit.thread_seconds, 0.0);
    EXPECT_NEAR(audit.phases.total(), audit.thread_seconds,
                1e-6 * audit.thread_seconds + 1e-9);
    EXPECT_GE(audit.wall_s, 0.0);
    EXPECT_LE(audit.measured_compute_s, audit.thread_seconds + 1e-9);
  }
  EXPECT_EQ(tiles, model.total_tiles(params));
  for (int rk = 0; rk < 2; ++rk)
    EXPECT_DOUBLE_EQ(r.ranks[static_cast<std::size_t>(rk)].predicted_work,
                     static_cast<double>(balancer.owned_work(rk)));
  EXPECT_NEAR(total_predicted,
              static_cast<double>(balancer.total_work()), 1e-9);

  // Comm matrix: row/column sums match the per-peer and global counters
  // of the run's own metrics document.
  auto metrics = json::parse(read_file(metrics_path));
  auto counter = [&](const std::string& name) {
    return static_cast<std::uint64_t>(
        metrics->at("counters").at(name).as_number());
  };
  ASSERT_EQ(r.bytes_matrix.size(), 2u);
  ASSERT_EQ(r.messages_matrix.size(), 2u);
  std::uint64_t bytes = 0, messages = 0;
  for (int dst = 0; dst < 2; ++dst) {
    std::uint64_t col_bytes = 0, col_messages = 0;
    for (int src = 0; src < 2; ++src) {
      col_bytes += r.bytes_matrix[static_cast<std::size_t>(src)]
                                 [static_cast<std::size_t>(dst)];
      col_messages += r.messages_matrix[static_cast<std::size_t>(src)]
                                       [static_cast<std::size_t>(dst)];
    }
    EXPECT_EQ(col_bytes, counter(cat("comm.bytes_sent.to", dst)))
        << "destination " << dst;
    EXPECT_EQ(col_messages, counter(cat("comm.messages_sent.to", dst)))
        << "destination " << dst;
    bytes += col_bytes;
    messages += col_messages;
  }
  EXPECT_EQ(r.total_bytes, bytes);
  EXPECT_EQ(r.total_messages, messages);
  EXPECT_EQ(bytes, counter("comm.bytes_sent"));
  EXPECT_EQ(messages, counter("comm.messages_sent"));
  EXPECT_GT(messages, 0u) << "a 2-rank run must cross the rank boundary";

  // The written file round-trips and validates against the schema.
  auto doc = json::parse(read_file(report_path));
  EXPECT_EQ(doc->at("schema").as_string(), "dpgen.report.v1");
  auto schema = json::parse(read_file(DPGEN_REPORT_SCHEMA));
  for (const auto& e : json::validate(*schema, *doc)) ADD_FAILURE() << e;
  std::remove(report_path.c_str());
  std::remove(metrics_path.c_str());
}

// The simulator's replayed timeline goes through the same analyzer.
TEST(Analysis, SimulatedTimelineThroughAnalyzer) {
  spec::ProblemSpec s;
  s.name("paths")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("y >= 0")
      .constraint("y <= N")
      .dep("r1", {1, 0})
      .dep("r2", {0, 1})
      .load_balance({"x", "y"})
      .tile_widths({4, 4})
      .center_code("V[loc] = 0.0;");
  tiling::TilingModel model(s);
  const IntVec params{31};

  sim::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.cores_per_node = 2;
  cfg.record_timeline = true;
  auto sim_result = sim::simulate(model, params, cfg);
  ASSERT_FALSE(sim_result.timeline.empty());

  AnalysisInput in = sim::analysis_input(sim_result, model, params, cfg);
  EXPECT_EQ(in.source, "sim");
  AnalysisReport r = obs::analyze(in);
  EXPECT_EQ(r.nranks, cfg.nodes);
  // The analyzer measures from the earliest span start, which may sit a
  // tile-overhead after the simulator's t=0.
  EXPECT_LE(r.makespan_s, sim_result.makespan + 1e-9);
  EXPECT_GT(r.makespan_s, 0.9 * sim_result.makespan);
  ASSERT_GE(r.critical_path.size(), 2u);
  EXPECT_NEAR(r.path_attribution.total(), r.makespan_s,
              0.05 * r.makespan_s);

  // Simulated traffic matrices agree with the simulator's own totals.
  std::uint64_t messages = 0;
  for (const auto& row : r.messages_matrix)
    for (std::uint64_t v : row) messages += v;
  EXPECT_EQ(messages,
            static_cast<std::uint64_t>(sim_result.remote_messages));
  EXPECT_EQ(r.total_bytes,
            static_cast<std::uint64_t>(sim_result.remote_scalars) *
                sizeof(double));

  // Same schema as real runs.
  auto schema = json::parse(read_file(DPGEN_REPORT_SCHEMA));
  auto doc = json::parse(obs::report_json(r));
  for (const auto& e : json::validate(*schema, *doc)) ADD_FAILURE() << e;
}

TEST(Analysis, ReportTextMentionsEverySection) {
  AnalysisReport r = obs::analyze(hand_built_input());
  std::string text = obs::report_text(r);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("load balance"), std::string::npos);
  EXPECT_NE(text.find("comm matrix"), std::string::npos);
  EXPECT_NE(text.find("chain"), std::string::npos);
}

TEST(Analysis, DiffReportsDeltasTheComparableSummary) {
  AnalysisReport before = obs::analyze(hand_built_input());
  AnalysisReport after = before;
  after.makespan_s += 0.5;
  after.path_attribution.compute += 0.4;
  after.path_attribution.idle += 0.1;
  after.critical_path.push_back(after.critical_path.back());
  after.total_bytes += 100;
  after.measured_imbalance += 0.25;

  auto old_doc = json::parse(obs::report_json(before));
  auto new_doc = json::parse(obs::report_json(after));
  obs::ReportDelta d = obs::diff_reports(*old_doc, *new_doc);
  EXPECT_NEAR(d.new_makespan_s - d.old_makespan_s, 0.5, 1e-6);
  EXPECT_EQ(d.new_path_tiles - d.old_path_tiles, 1);
  EXPECT_NEAR(d.new_phases.compute - d.old_phases.compute, 0.4, 1e-6);
  EXPECT_NEAR(d.new_phases.idle - d.old_phases.idle, 0.1, 1e-6);
  EXPECT_NEAR(d.new_total_bytes - d.old_total_bytes, 100.0, 1e-6);
  EXPECT_NEAR(d.new_measured_imbalance - d.old_measured_imbalance, 0.25,
              1e-6);

  std::string text = obs::diff_text(d);
  EXPECT_NE(text.find("makespan_s"), std::string::npos);
  EXPECT_NE(text.find("total_bytes"), std::string::npos);

  auto diff_doc = json::parse(obs::diff_json(d));
  EXPECT_EQ(diff_doc->at("schema").as_string(), "dpgen.reportdiff.v1");
  EXPECT_NEAR(diff_doc->at("delta").at("makespan_s").as_number(), 0.5,
              1e-6);
  EXPECT_NEAR(
      diff_doc->at("delta").at("phases_seconds").at("compute").as_number(),
      0.4, 1e-6);
}

// Regression: a phase bucket present in only one of the two reports (an
// old report predating a new phase, or vice versa) must diff cleanly —
// missing buckets read as zero on the side that lacks them, and the
// one-sided bucket still shows up in the text and JSON deltas.
TEST(Analysis, DiffReportsHandlesOneSidedPhaseBuckets) {
  AnalysisReport base = obs::analyze(hand_built_input());
  auto old_doc = json::parse(obs::report_json(base));
  auto new_doc = json::parse(obs::report_json(base));

  // Splice a non-canonical bucket into the new report's attribution only.
  json::Value& attribution = const_cast<json::Value&>(
      new_doc->at("critical_path").at("attribution_seconds"));
  auto extra = std::make_shared<json::Value>();
  extra->kind = json::Kind::kNumber;
  extra->number = 0.75;
  attribution.fields["gather"] = extra;

  obs::ReportDelta d = obs::diff_reports(*old_doc, *new_doc);
  ASSERT_EQ(d.new_extra_phases.count("gather"), 1u);
  EXPECT_NEAR(d.new_extra_phases.at("gather"), 0.75, 1e-9);
  EXPECT_TRUE(d.old_extra_phases.empty());

  const std::string text = obs::diff_text(d);
  EXPECT_NE(text.find("gather"), std::string::npos);

  auto diff_doc = json::parse(obs::diff_json(d));
  // Old side reads as zero, the delta carries the full new value.
  EXPECT_FALSE(diff_doc->at("old").at("phases_seconds").has("gather"));
  EXPECT_NEAR(
      diff_doc->at("new").at("phases_seconds").at("gather").as_number(),
      0.75, 1e-9);
  EXPECT_NEAR(
      diff_doc->at("delta").at("phases_seconds").at("gather").as_number(),
      0.75, 1e-9);

  // And the mirror image: the bucket only in the OLD report.
  obs::ReportDelta rd = obs::diff_reports(*new_doc, *old_doc);
  ASSERT_EQ(rd.old_extra_phases.count("gather"), 1u);
  EXPECT_TRUE(rd.new_extra_phases.empty());
  auto rdoc = json::parse(obs::diff_json(rd));
  EXPECT_NEAR(
      rdoc->at("delta").at("phases_seconds").at("gather").as_number(),
      -0.75, 1e-9);
}

TEST(Analysis, DiffReportsRejectsNonV1Documents) {
  auto bogus = json::parse("{\"schema\":\"bogus.v0\"}");
  auto good = json::parse(obs::report_json(obs::analyze(hand_built_input())));
  EXPECT_THROW(obs::diff_reports(*bogus, *good), Error);
  EXPECT_THROW(obs::diff_reports(*good, *bogus), Error);
}

}  // namespace
}  // namespace dpgen
