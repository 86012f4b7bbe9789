// Causal message tracing (ISSUE 10): per-message lifecycle records, the
// queueing-delay decomposition, per-link conservation accounting, Perfetto
// flow pairing, and the measured-vs-inferred critical-path cross-check.
//
// The end-to-end tests drive real 2-rank engine runs over the sharded tile
// table with worker threads — the same configuration scripts/check.sh
// re-runs under ThreadSanitizer, so the envelope stamps are exercised for
// data races, not just correctness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/msgtrace.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "problems/problems.hpp"
#include "sim/cluster_sim.hpp"
#include "support/json.hpp"
#include "support/json_schema.hpp"
#include "support/str.hpp"
#include "tiling/model.hpp"

namespace dpgen {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string repeat_abc(std::size_t n) {
  static const char alphabet[] = "acgtacgggtca";
  std::string s;
  for (std::size_t i = 0; i < n; ++i)
    s += alphabet[(i * 7 + i / 3) % (sizeof alphabet - 1)];
  return s;
}

/// Runs one bundled problem 2-rank x 2-thread with message tracing into
/// `mt_path` ("" = collect only) and returns the engine result.
engine::EngineResult traced_run(const problems::Problem& p,
                                const IntVec& params,
                                const std::string& mt_path,
                                const std::string& trace_path = "") {
  tiling::TilingModel model(p.spec);
  engine::EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;
  opt.report_json_path = "-";  // analyzer on, no file
  opt.msgtrace_json_path = mt_path.empty() ? "-" : mt_path;
  opt.trace_json_path = trace_path;
  if (!p.objective.empty()) opt.probes = {p.objective};
  return engine::run(model, params, p.kernel, opt);
}

long long inum(const json::Value& v, const char* key) {
  return v.has(key) ? static_cast<long long>(v.at(key).as_number()) : 0;
}

// ---- ring mechanics -------------------------------------------------------

TEST(MsgTrace, RingOverflowCountsEveryDroppedRecord) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  obs::Session session(/*trace=*/false, /*msgtrace=*/true);
  obs::RingSet<obs::MsgRecord>& t = session.msgs();
  const std::uint64_t extra = 123;
  const std::uint64_t total = obs::Session::kMsgRingCapacity + extra;
  {
    obs::ThreadBinding binding(&session, /*rank=*/0, /*thread=*/0);
    for (std::uint64_t i = 0; i < total; ++i) {
      obs::MsgRecord r;
      r.seq = static_cast<std::int64_t>(i);
      r.src = 1;
      r.dst = 0;
      r.pack_ns = static_cast<std::int64_t>(i + 1);
      r.dispatch_ns = static_cast<std::int64_t>(i + 2);
      obs::record_msg(r);
    }
  }
  const std::vector<obs::MsgRecord> kept = t.collect_rank(0);
  EXPECT_EQ(kept.size(), obs::Session::kMsgRingCapacity);
  EXPECT_EQ(t.dropped(), extra);
  // The ring keeps the newest records: the smallest surviving seq is
  // exactly the drop count.
  std::int64_t min_seq = kept.front().seq;
  for (const obs::MsgRecord& r : kept) min_seq = std::min(min_seq, r.seq);
  EXPECT_EQ(min_seq, static_cast<std::int64_t>(extra));
  t.clear();
  EXPECT_TRUE(t.collect_rank(0).empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(MsgTrace, DecompositionPartitionsEndToEndExactly) {
  obs::MsgRecord r;
  r.pack_ns = 100;
  r.send_ns = 130;
  r.admit_ns = 131;
  r.deliver_ns = 500;
  r.unpack_ns = 650;
  r.dispatch_ns = 700;
  const obs::MsgQueueing q = obs::decompose(r);
  EXPECT_EQ(q.pack_ns, 30);
  EXPECT_EQ(q.sender_blocked_ns, 1);
  EXPECT_EQ(q.queue_ns, 369);
  EXPECT_EQ(q.unpack_wait_ns, 150);
  EXPECT_EQ(q.dispatch_ns, 50);
  EXPECT_EQ(q.total(), r.dispatch_ns - r.pack_ns);

  // A malformed (non-monotone) record clamps segments at zero instead of
  // producing negative buckets.
  obs::MsgRecord bad = r;
  bad.admit_ns = 90;
  const obs::MsgQueueing qb = obs::decompose(bad);
  EXPECT_EQ(qb.sender_blocked_ns, 0);
  EXPECT_GE(qb.queue_ns, 0);
}

// ---- end-to-end engine runs ----------------------------------------------

TEST(MsgTrace, EngineRunStampsAreMonotoneAndConserved) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  const std::string path = testing::TempDir() + "/mt_engine.json";
  problems::Problem p = problems::lcs({repeat_abc(96), repeat_abc(96)}, 16);
  auto result = traced_run(p, {96, 96}, path);
  // Envelope-only: the computed result is unchanged by tracing.
  EXPECT_NEAR(result.at(p.objective), p.reference({96, 96}), 1e-9);

  json::ValuePtr doc = json::parse(read_file(path));
  EXPECT_EQ(doc->at("schema").as_string(), "dpgen.msgtrace.v1");
  EXPECT_GT(inum(*doc, "messages"), 0);

  // Conservation: every assigned sequence number was delivered.
  const json::Value& c = doc->at("conservation");
  EXPECT_GT(inum(c, "total_sent"), 0);
  EXPECT_EQ(inum(c, "total_sent"), inum(c, "total_delivered"));
  EXPECT_EQ(inum(c, "unexplained_loss"), 0);
  EXPECT_TRUE(c.at("accounted").boolean);

  // Every record's stamps are monotone non-decreasing in lifecycle order,
  // and the aggregate decomposition sums records' end-to-end latencies.
  long long e2e = 0;
  for (const json::ValuePtr& r : doc->at("records").as_array()) {
    const long long stamps[] = {inum(*r, "pack_ns"),    inum(*r, "send_ns"),
                                inum(*r, "admit_ns"),   inum(*r, "deliver_ns"),
                                inum(*r, "unpack_ns"),  inum(*r, "dispatch_ns")};
    for (std::size_t i = 1; i < std::size(stamps); ++i)
      EXPECT_LE(stamps[i - 1], stamps[i]) << "stamp " << i;
    EXPECT_GE(inum(*r, "seq"), 0);
    EXPECT_GT(inum(*r, "bytes"), 0);
    e2e += stamps[5] - stamps[0];
  }
  ASSERT_EQ(inum(*doc, "records_truncated"), 0);
  EXPECT_EQ(e2e, inum(doc->at("queueing_ns"), "end_to_end"));

  // Per-link rows re-sum to the totals and each decomposition closes.
  long long sent = 0;
  for (const json::ValuePtr& link : doc->at("links").as_array()) {
    sent += inum(*link, "sent");
    const json::Value& q = link->at("queueing_ns");
    EXPECT_EQ(inum(q, "pack") + inum(q, "sender_blocked") +
                  inum(q, "queue") + inum(q, "unpack_wait") +
                  inum(q, "dispatch"),
              inum(q, "end_to_end"));
  }
  EXPECT_EQ(sent, inum(c, "total_sent"));

  // The document validates against its registered schema.
  json::ValuePtr schema = json::parse(read_file(DPGEN_MSGTRACE_SCHEMA));
  for (const std::string& e : json::validate(*schema, *doc))
    ADD_FAILURE() << e;
  std::remove(path.c_str());
}

TEST(MsgTrace, PerfettoFlowEventsPairAcrossRanks) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  const std::string trace_path = testing::TempDir() + "/mt_trace.json";
  problems::Problem p =
      problems::edit_distance(repeat_abc(80), repeat_abc(80), 16);
  traced_run(p, {80, 80}, "", trace_path);

  json::ValuePtr doc = json::parse(read_file(trace_path));
  std::map<std::string, int> starts, finishes;
  for (const json::ValuePtr& ev : doc->at("traceEvents").as_array()) {
    if (!ev->has("ph")) continue;
    const std::string ph = ev->at("ph").as_string();
    if (ph != "s" && ph != "f") continue;
    ASSERT_TRUE(ev->has("id"));
    ASSERT_TRUE(ev->has("ts"));
    const std::string id = ev->at("id").as_string();
    if (ph == "s") ++starts[id];
    else ++finishes[id];
    if (ph == "f") {
      EXPECT_EQ(ev->at("bp").as_string(), "e")
          << "flow finish must bind to the enclosing slice";
    }
  }
  ASSERT_FALSE(starts.empty()) << "a 2-rank run must emit flow events";
  EXPECT_EQ(starts.size(), finishes.size());
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "duplicate flow start " << id;
    EXPECT_EQ(finishes.count(id), 1u) << "unpaired flow start " << id;
  }
  std::remove(trace_path.c_str());
}

// Acceptance criterion: on clean runs of >= 3 problem families, the
// measured (message-stamped) critical path agrees with the span-inferred
// one — length within 10%, per-phase attribution within 15 percentage
// points of the makespan.
TEST(MsgTrace, MeasuredPathAgreesWithInferredAcrossFamilies) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  struct Family {
    const char* name;
    problems::Problem problem;
    IntVec params;
  };
  const std::string a = repeat_abc(96), b = repeat_abc(96);
  const std::vector<Family> families = {
      {"lcs", problems::lcs({a, b}, 16), {96, 96}},
      {"edit_distance", problems::edit_distance(a, b, 16), {96, 96}},
      {"smith_waterman", problems::smith_waterman(a, b), {96, 96}},
  };
  for (const Family& f : families) {
    SCOPED_TRACE(f.name);
    auto result = traced_run(f.problem, f.params, "");
    ASSERT_TRUE(result.report.has_value());
    const obs::AnalysisReport& r = *result.report;
    ASSERT_TRUE(r.measured_path_valid);
    ASSERT_GE(r.critical_path.size(), 2u);
    ASSERT_GE(r.measured_path.size(), 2u);

    const double inferred = static_cast<double>(r.critical_path.size());
    const double measured = static_cast<double>(r.measured_path.size());
    EXPECT_NEAR(measured / inferred, 1.0, 0.10)
        << "measured " << measured << " vs inferred " << inferred;

    ASSERT_GT(r.makespan_s, 0.0);
    const auto phase_fractions = [&](const obs::PhaseBreakdown& pb) {
      return std::vector<double>{
          pb.compute / r.makespan_s, pb.unpack / r.makespan_s,
          pb.pack / r.makespan_s,    pb.send / r.makespan_s,
          pb.blocked_send / r.makespan_s, pb.poll / r.makespan_s,
          pb.idle / r.makespan_s,    pb.barrier / r.makespan_s,
          pb.other / r.makespan_s};
    };
    const std::vector<double> fi = phase_fractions(r.path_attribution);
    const std::vector<double> fm = phase_fractions(r.measured_attribution);
    for (std::size_t i = 0; i < fi.size(); ++i)
      EXPECT_NEAR(fm[i], fi[i], 0.15) << "phase index " << i;

    // Both attributions explain (nearly all of) the same makespan.
    EXPECT_NEAR(r.measured_coverage, r.path_coverage, 0.15);
  }
}

TEST(MsgTrace, ReportQueueingSectionMatchesDocument) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  const std::string path = testing::TempDir() + "/mt_vs_report.json";
  problems::Problem p = problems::lcs({repeat_abc(64), repeat_abc(64)}, 16);
  auto result = traced_run(p, {64, 64}, path);
  ASSERT_TRUE(result.report.has_value());
  const obs::AnalysisReport& r = *result.report;

  json::ValuePtr doc = json::parse(read_file(path));
  EXPECT_EQ(static_cast<long long>(r.msg_records), inum(*doc, "messages"));
  // Same records feed both documents, so the decompositions agree
  // bucket for bucket.
  const json::Value& q = doc->at("queueing_ns");
  EXPECT_EQ(r.queueing.pack_ns, inum(q, "pack"));
  EXPECT_EQ(r.queueing.sender_blocked_ns, inum(q, "sender_blocked"));
  EXPECT_EQ(r.queueing.queue_ns, inum(q, "queue"));
  EXPECT_EQ(r.queueing.unpack_wait_ns, inum(q, "unpack_wait"));
  EXPECT_EQ(r.queueing.dispatch_ns, inum(q, "dispatch"));
  EXPECT_EQ(r.queueing.total(), inum(q, "end_to_end"));
  std::remove(path.c_str());
}

// ---- simulator -----------------------------------------------------------

TEST(MsgTrace, SimulatedMessagesConserveLosslessly) {
  problems::Problem p = problems::lcs({repeat_abc(96), repeat_abc(96)}, 16);
  tiling::TilingModel model(p.spec);
  const std::string path = testing::TempDir() + "/mt_sim.json";
  sim::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  cfg.msgtrace_path = path;
  sim::SimResult res = sim::simulate(model, {96, 96}, cfg);
  ASSERT_FALSE(res.msg_records.empty());

  json::ValuePtr doc = json::parse(read_file(path));
  EXPECT_EQ(doc->at("source").as_string(), "sim");
  const json::Value& c = doc->at("conservation");
  EXPECT_EQ(inum(c, "total_sent"), inum(c, "total_delivered"));
  EXPECT_EQ(inum(c, "unexplained_loss"), 0);
  EXPECT_TRUE(c.at("accounted").boolean);
  EXPECT_EQ(inum(c, "total_sent"),
            static_cast<long long>(res.remote_messages));
  // DES stamps are monotone too, with link latency in the queue bucket.
  for (const obs::MsgRecord& m : res.msg_records) {
    EXPECT_LE(m.pack_ns, m.admit_ns);
    EXPECT_LE(m.admit_ns, m.deliver_ns);
    EXPECT_LE(m.deliver_ns, m.dispatch_ns);
    EXPECT_GT(m.deliver_ns - m.admit_ns, 0) << "modelled link latency";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dpgen
