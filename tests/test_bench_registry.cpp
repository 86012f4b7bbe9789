// Unit tests for the continuous-benchmarking registry (obs/bench_registry):
// registration and dedup, the robust trial statistics, the dpgen.bench.v1
// round-trip against the checked-in schema, and the regression gate's
// verdicts — including the self-test path that injects a synthetic
// slowdown and expects the gate to fire.

#include "obs/bench_registry.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "support/json.hpp"
#include "support/json_schema.hpp"

namespace dpgen::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

BenchSample fixed_sample(double seconds) {
  BenchSample s;
  s.seconds = seconds;
  return s;
}

/// A doc with one record per (name, median, mad) triple; samples are
/// synthesized so parse/gate paths see a plausible record.
BenchDoc make_doc(const std::string& fingerprint,
                  std::vector<std::tuple<std::string, double, double>>
                      benches) {
  BenchDoc doc;
  doc.meta.git_sha = "abcdef123456";
  doc.meta.machine = "test-cpu x4";
  doc.meta.fingerprint = fingerprint;
  doc.meta.timestamp = 1700000000;
  doc.meta.trials = 3;
  for (auto& [name, median, mad] : benches) {
    BenchRecord rec;
    rec.name = name;
    rec.stats.trials = 3;
    rec.stats.kept = 3;
    rec.stats.median_s = median;
    rec.stats.mad_s = mad;
    rec.stats.min_s = median - mad;
    rec.stats.max_s = median + mad;
    rec.stats.samples_s = {median - mad, median, median + mad};
    doc.records.push_back(std::move(rec));
  }
  return doc;
}

TEST(BenchRegistry, RegistrationDedupAndSelect) {
  BenchRegistry& reg = BenchRegistry::instance();
  ASSERT_TRUE(reg.add("t/alpha", [] { return fixed_sample(1.0); }));
  ASSERT_TRUE(reg.add("t/beta", [] { return fixed_sample(2.0); }));
  // Duplicate names are rejected; the first registration wins.
  EXPECT_FALSE(reg.add("t/alpha", [] { return fixed_sample(9.0); }));
  ASSERT_NE(reg.find("t/alpha"), nullptr);
  EXPECT_EQ(reg.find("t/alpha")->run().seconds, 1.0);
  EXPECT_EQ(reg.find("t/missing"), nullptr);

  std::vector<std::string> all = reg.select("");
  ASSERT_GE(all.size(), 2u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));

  std::vector<std::string> one = reg.select("t/al");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], "t/alpha");

  std::vector<std::string> both = reg.select("t/alpha,t/beta");
  EXPECT_EQ(both.size(), 2u);

  // Table IDs dedup the same way; the first printer wins.
  static int printed = 0;
  ASSERT_TRUE(reg.add_table("T-ONE", [] { printed = 1; }));
  EXPECT_FALSE(reg.add_table("T-ONE", [] { printed = 9; }));
  ASSERT_EQ(reg.tables().count("T-ONE"), 1u);
  reg.tables().at("T-ONE")();
  EXPECT_EQ(printed, 1);
}

TEST(BenchRegistry, RobustStatsRejectsOutliers) {
  // One 50s sample among ~1s samples: a classic preemption outlier.
  TrialStats st = robust_stats({1.0, 1.1, 0.9, 1.05, 50.0});
  EXPECT_EQ(st.trials, 5);
  EXPECT_EQ(st.kept, 4);
  EXPECT_DOUBLE_EQ(st.median_s, 0.5 * (1.0 + 1.05));
  // min/max always cover every sample, rejected or not.
  EXPECT_DOUBLE_EQ(st.min_s, 0.9);
  EXPECT_DOUBLE_EQ(st.max_s, 50.0);
  EXPECT_EQ(st.samples_s.size(), 5u);
}

TEST(BenchRegistry, RobustStatsIdenticalSamplesKeepAll) {
  TrialStats st = robust_stats({2.0, 2.0, 2.0});
  EXPECT_EQ(st.kept, 3);
  EXPECT_DOUBLE_EQ(st.median_s, 2.0);
  EXPECT_DOUBLE_EQ(st.mad_s, 0.0);
}

TEST(BenchRegistry, RunBenchAppliesSlowdownAndPicksMedianTrialMetrics) {
  int calls = 0;
  BenchEntry entry;
  entry.name = "t/slowdown";
  entry.run = [&calls] {
    BenchSample s;
    s.seconds = 0.010 * (calls + 1);  // 10ms, 20ms, 30ms
    s.metrics = {{"trial", static_cast<double>(calls)}};
    ++calls;
    return s;
  };
  BenchRecord rec = run_bench(entry, /*trials=*/3, /*warmup=*/0,
                              /*slowdown=*/2.0);
  ASSERT_EQ(rec.stats.samples_s.size(), 3u);
  EXPECT_DOUBLE_EQ(rec.stats.samples_s[0], 0.020);
  EXPECT_DOUBLE_EQ(rec.stats.median_s, 0.040);
  // The metrics come from the trial closest to the median (trial 1).
  ASSERT_EQ(rec.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.metrics[0].second, 1.0);
}

TEST(BenchRegistry, JsonRoundTripValidatesAgainstSchema) {
  BenchDoc doc = make_doc("feedc0de00000000",
                          {{"t/a", 0.01, 0.001}, {"t/b", 0.5, 0.0}});
  doc.records[0].metrics = {{"edges_per_s", 1.25e6}, {"tiles", 42.0}};
  const std::string text = bench_json(doc);

  json::ValuePtr parsed = json::parse(text);
  json::ValuePtr schema = json::parse(read_file(DPGEN_BENCH_SCHEMA));
  for (const std::string& e : json::validate(*schema, *parsed))
    ADD_FAILURE() << e;

  BenchDoc back = parse_bench_doc(*parsed);
  EXPECT_EQ(back.meta.git_sha, doc.meta.git_sha);
  EXPECT_EQ(back.meta.machine, doc.meta.machine);
  EXPECT_EQ(back.meta.fingerprint, doc.meta.fingerprint);
  EXPECT_EQ(back.meta.timestamp, doc.meta.timestamp);
  EXPECT_EQ(back.meta.trials, doc.meta.trials);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].name, "t/a");
  EXPECT_DOUBLE_EQ(back.records[0].stats.median_s, 0.01);
  EXPECT_DOUBLE_EQ(back.records[0].stats.mad_s, 0.001);
  ASSERT_EQ(back.records[0].metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(back.records[0].stats.samples_s[1], 0.01);
}

TEST(BenchRegistry, GateClassifiesEveryVerdict) {
  BenchDoc baseline = make_doc("fp", {{"t/regressed", 0.010, 0.0001},
                                      {"t/noisy_ok", 0.010, 0.0001},
                                      {"t/gone", 0.010, 0.0001},
                                      {"t/improved", 0.010, 0.0001}});
  BenchDoc run = make_doc("fp", {{"t/regressed", 0.015, 0.0001},
                                 {"t/noisy_ok", 0.0102, 0.0001},
                                 {"t/new", 0.010, 0.0001},
                                 {"t/improved", 0.005, 0.0001}});
  GateResult r = gate(baseline, run);
  EXPECT_TRUE(r.fingerprint_match);
  EXPECT_EQ(r.regressions, 1);
  EXPECT_EQ(r.improvements, 1);
  ASSERT_EQ(r.findings.size(), 5u);
  // Findings come back sorted by name.
  EXPECT_EQ(r.findings[0].name, "t/gone");
  EXPECT_EQ(r.findings[0].verdict, GateVerdict::kNotRun);
  EXPECT_EQ(r.findings[1].name, "t/improved");
  EXPECT_EQ(r.findings[1].verdict, GateVerdict::kImprovement);
  EXPECT_EQ(r.findings[2].name, "t/new");
  EXPECT_EQ(r.findings[2].verdict, GateVerdict::kNoBaseline);
  EXPECT_EQ(r.findings[3].name, "t/noisy_ok");
  EXPECT_EQ(r.findings[3].verdict, GateVerdict::kOk);
  EXPECT_EQ(r.findings[4].name, "t/regressed");
  EXPECT_EQ(r.findings[4].verdict, GateVerdict::kRegression);
  EXPECT_NEAR(r.findings[4].ratio, 1.5, 1e-9);
}

TEST(BenchRegistry, GateNoiseWidensTheThreshold) {
  // A within-threshold delta under a huge MAD must not fire even though
  // the same ratio would fire under a tight MAD.
  BenchDoc baseline = make_doc("fp", {{"t/jittery", 0.010, 0.002}});
  BenchDoc run = make_doc("fp", {{"t/jittery", 0.0115, 0.002}});
  GateResult r = gate(baseline, run);
  // threshold = max(0.10, 5 * 0.002 / 0.010) = 1.0; ratio 1.15 is inside.
  EXPECT_EQ(r.regressions, 0);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].verdict, GateVerdict::kOk);
  EXPECT_DOUBLE_EQ(r.findings[0].threshold, 1.0);
}

TEST(BenchRegistry, GateAbsoluteFloorProtectsMicrosecondBenches) {
  // Ratio 5x but only 40 microseconds apart: below the 1e-4s floor, so
  // cross-process jitter on tiny benches cannot trip the gate.
  BenchDoc baseline = make_doc("fp", {{"t/tiny", 1e-5, 0.0}});
  BenchDoc run = make_doc("fp", {{"t/tiny", 5e-5, 0.0}});
  GateResult r = gate(baseline, run);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.findings[0].verdict, GateVerdict::kOk);

  // The same ratio above the floor fires.
  BenchDoc baseline2 = make_doc("fp", {{"t/big", 1e-2, 0.0}});
  BenchDoc run2 = make_doc("fp", {{"t/big", 5e-2, 0.0}});
  EXPECT_EQ(gate(baseline2, run2).regressions, 1);
}

TEST(BenchRegistry, GateReportsFingerprintMismatch) {
  BenchDoc baseline = make_doc("fp-one", {{"t/x", 0.010, 0.0}});
  BenchDoc run = make_doc("fp-two", {{"t/x", 0.010, 0.0}});
  EXPECT_FALSE(gate(baseline, run).fingerprint_match);
}

TEST(BenchRegistry, GateTextAndJsonRenderings) {
  BenchDoc baseline = make_doc("fp", {{"t/regressed", 0.010, 0.0}});
  BenchDoc run = make_doc("fp", {{"t/regressed", 0.020, 0.0}});
  GateResult r = gate(baseline, run);
  std::string text = gate_text(r);
  EXPECT_NE(text.find("1 regression(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("t/regressed"), std::string::npos);

  json::ValuePtr parsed = json::parse(gate_json(r));
  EXPECT_EQ(parsed->at("schema").as_string(), "dpgen.benchgate.v1");
  EXPECT_EQ(parsed->at("regressions").as_number(), 1.0);
  EXPECT_EQ(parsed->at("findings").as_array().size(), 1u);
  EXPECT_EQ(parsed->at("findings").as_array()[0]->at("verdict").as_string(),
            "regression");
}

TEST(BenchRegistry, InjectedSlowdownFiresTheGate) {
  // End-to-end self-test: measure a deterministic bench, then re-run it
  // through run_bench's slowdown injection and gate the two documents —
  // exactly what `dpgen-bench --gate --self-test-slowdown=4` does.
  BenchEntry entry;
  entry.name = "t/self_test";
  entry.run = [] { return fixed_sample(0.010); };

  BenchDoc baseline = make_doc("fp", {});
  baseline.records.push_back(run_bench(entry, 3, 0));
  BenchDoc same = make_doc("fp", {});
  same.records.push_back(run_bench(entry, 3, 0));
  EXPECT_EQ(gate(baseline, same).regressions, 0);

  BenchDoc slowed = make_doc("fp", {});
  slowed.records.push_back(run_bench(entry, 3, 0, /*slowdown=*/4.0));
  GateResult r = gate(baseline, slowed);
  EXPECT_EQ(r.regressions, 1);
  EXPECT_EQ(r.findings[0].verdict, GateVerdict::kRegression);
  EXPECT_NEAR(r.findings[0].ratio, 4.0, 1e-9);
}

}  // namespace
}  // namespace dpgen::obs
