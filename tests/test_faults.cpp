// Deterministic chaos suite for the fault-injecting transport and the
// checkpoint/restart machinery (ROADMAP item 5, docs/fault-tolerance.md).
//
// The headline assertions run every seed problem family through seeded
// fault scenarios — mid-run rank kill, message drop, duplication, delay,
// slow node — and require the faulty run's RESULT/MAX lines to be
// byte-identical to the fault-free run's, under both the plain and the
// sharded tile table.  A randomized soak mode replays seeded random plans;
// a failing iteration logs its seed and plan string for exact replay
// (--chaos-iters=N raises the iteration count; scripts/check.sh and the
// ChaosSoak ctest entry use it).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos_util.hpp"
#include "minimpi/faults.hpp"
#include "minimpi/transport.hpp"
#include "minimpi/world.hpp"
#include "runtime/checkpoint.hpp"
#include "support/json.hpp"
#include "support/json_schema.hpp"

namespace dpgen {

int g_soak_iters = 12;  // default; --chaos-iters=N overrides (check.sh: 100)

namespace {

using chaos::ChaosCase;
using minimpi::FaultInjector;
using minimpi::FaultPlan;
using minimpi::InProcessTransport;
using minimpi::Message;
using minimpi::PostResult;
using minimpi::TransportFailure;

// ---------------------------------------------------------------- grammar

TEST(FaultPlanGrammar, ToStringParseRoundTrip) {
  const std::string text =
      "kill:1@120;drop:*>2@3;dup:0>*@1;delay:2>3@4+7;slow:0@25";
  const FaultPlan plan = FaultPlan::parse(text);
  EXPECT_EQ(plan.to_string(), text);
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), text);
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].rank, 1);
  EXPECT_EQ(plan.kills[0].after_ops, 120);
  ASSERT_EQ(plan.links.size(), 3u);
  EXPECT_EQ(plan.links[0].kind, FaultPlan::LinkFault::kDrop);
  EXPECT_EQ(plan.links[0].src, -1);
  EXPECT_EQ(plan.links[0].dst, 2);
  EXPECT_EQ(plan.links[2].kind, FaultPlan::LinkFault::kDelay);
  EXPECT_EQ(plan.links[2].hold, 7);
  ASSERT_EQ(plan.slows.size(), 1u);
  EXPECT_EQ(plan.slows[0].op_delay_us, 25);
}

TEST(FaultPlanGrammar, WhitespaceAndEmptyTokensTolerated) {
  const FaultPlan plan = FaultPlan::parse(" kill:0@5 ; ; slow:1@10 ");
  EXPECT_EQ(plan.to_string(), "kill:0@5;slow:1@10");
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlanGrammar, MalformedPlansRejected) {
  EXPECT_THROW(FaultPlan::parse("boom:1@2"), Error);
  EXPECT_THROW(FaultPlan::parse("kill:*@5"), Error);   // needs concrete rank
  EXPECT_THROW(FaultPlan::parse("kill:1"), Error);     // missing '@'
  EXPECT_THROW(FaultPlan::parse("delay:0>1@2"), Error);  // missing '+hold'
  EXPECT_THROW(FaultPlan::parse("drop:0@1"), Error);   // missing '>'
  EXPECT_THROW(FaultPlan::parse("drop:x>1@1"), Error);
}

TEST(FaultPlanGrammar, RandomIsSeedDeterministicAndRoundTrips) {
  for (unsigned seed = 0; seed < 64; ++seed) {
    const FaultPlan a = FaultPlan::random(seed, 4);
    const FaultPlan b = FaultPlan::random(seed, 4);
    EXPECT_EQ(a.to_string(), b.to_string()) << "seed " << seed;
    EXPECT_FALSE(a.empty()) << "seed " << seed;
    EXPECT_EQ(FaultPlan::parse(a.to_string()).to_string(), a.to_string())
        << "seed " << seed;
  }
  // Not all seeds generate the same plan.
  EXPECT_NE(FaultPlan::random(1, 4).to_string(),
            FaultPlan::random(2, 4).to_string());
}

TEST(FaultPlanGrammar, OutOfRangePlansRejectedByInjector) {
  auto base = std::make_shared<InProcessTransport>(2, 0);
  EXPECT_THROW(FaultInjector(base, FaultPlan::parse("kill:5@1")), Error);
  EXPECT_THROW(FaultInjector(base, FaultPlan::parse("slow:2@10")), Error);
  EXPECT_THROW(FaultInjector(base, FaultPlan::parse("drop:0>7@1")), Error);
}

// -------------------------------------------------------------- transport

Message make_msg(int source, int tag, std::uint8_t byte) {
  Message m;
  m.source = source;
  m.tag = tag;
  m.payload = {byte};
  return m;
}

TEST(Transport, InProcessPostCollectRoundTrip) {
  InProcessTransport t(2, 0);
  Message m = make_msg(0, 7, 42);
  ASSERT_EQ(t.try_post(0, 1, m), PostResult::kDelivered);
  int src = -1, tag = -1;
  EXPECT_TRUE(t.probe(1, &src, &tag));
  EXPECT_EQ(src, 0);
  EXPECT_EQ(tag, 7);
  auto got = t.collect(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, std::vector<std::uint8_t>{42});
  EXPECT_FALSE(t.collect(1).has_value());
}

TEST(Transport, CollectMatchFiltersBySourceAndTag) {
  InProcessTransport t(3, 0);
  Message a = make_msg(0, 1, 1), b = make_msg(1, 2, 2);
  ASSERT_EQ(t.try_post(0, 2, a), PostResult::kDelivered);
  ASSERT_EQ(t.try_post(1, 2, b), PostResult::kDelivered);
  EXPECT_FALSE(t.collect_match(2, 0, 9).has_value());
  auto got = t.collect_match(2, 1, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, std::vector<std::uint8_t>{2});
  EXPECT_TRUE(t.collect_match(2, -1, -1).has_value());  // wildcard
}

TEST(Transport, BoundedMailboxReportsFull) {
  InProcessTransport t(2, 1);
  Message a = make_msg(0, 0, 1), b = make_msg(0, 0, 2);
  ASSERT_EQ(t.try_post(0, 1, a), PostResult::kDelivered);
  ASSERT_EQ(t.try_post(0, 1, b), PostResult::kFull);
  EXPECT_EQ(b.payload, std::vector<std::uint8_t>{2});  // left intact
  EXPECT_TRUE(t.would_block(1));
  ASSERT_TRUE(t.collect(1).has_value());
  ASSERT_EQ(t.try_post(0, 1, b), PostResult::kDelivered);
}

TEST(Transport, FailurePoisonsBlockingCollect) {
  InProcessTransport t(2, 0);
  std::atomic<bool> threw{false};
  std::thread waiter([&] {
    try {
      (void)t.collect_blocking(1);
    } catch (const TransportFailure&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.fail("test poison");
  waiter.join();
  EXPECT_TRUE(threw.load());
  EXPECT_TRUE(t.failed());
  EXPECT_EQ(t.failure_reason(), "test poison");
  EXPECT_THROW(t.check_alive(), TransportFailure);
}

TEST(Transport, WorldRunsOnExplicitTransport) {
  auto transport = std::make_shared<InProcessTransport>(2, 0);
  minimpi::World world(2, 0, transport);
  std::vector<int> got(2, -1);
  world.run([&](minimpi::Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 41;
      comm.send(1, 0, &v, sizeof(v));
    } else {
      Message m = comm.recv();
      got[1] = *reinterpret_cast<const int*>(m.payload.data()) + 1;
    }
  });
  EXPECT_EQ(got[1], 42);
  EXPECT_THROW(minimpi::World(3, 0, transport), Error);  // nranks mismatch
}

TEST(FaultInjectorWire, DropsExactlyTheNthLinkMessage) {
  auto base = std::make_shared<InProcessTransport>(2, 0);
  FaultInjector inj(base, FaultPlan::parse("drop:0>1@2"));
  for (std::uint8_t i = 1; i <= 3; ++i) {
    Message m = make_msg(0, 0, i);
    ASSERT_EQ(inj.try_post(0, 1, m), PostResult::kDelivered);
  }
  std::vector<std::uint8_t> seen;
  while (auto m = inj.collect(1)) seen.push_back(m->payload[0]);
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{1, 3}));
  EXPECT_EQ(inj.stats().messages_dropped, 1);
}

TEST(FaultInjectorWire, CollectiveTagsAreExemptFromLinkFaults) {
  auto base = std::make_shared<InProcessTransport>(2, 0);
  FaultInjector inj(base, FaultPlan::parse("drop:*>*@1"));
  Message gather = make_msg(0, -102, 9);
  ASSERT_EQ(inj.try_post(0, 1, gather), PostResult::kDelivered);
  Message data = make_msg(0, 0, 1);
  ASSERT_EQ(inj.try_post(0, 1, data), PostResult::kDelivered);
  std::vector<std::uint8_t> seen;
  while (auto m = inj.collect(1)) seen.push_back(m->payload[0]);
  EXPECT_EQ(seen, std::vector<std::uint8_t>{9});  // data dropped, not gather
  EXPECT_EQ(inj.stats().messages_dropped, 1);
}

TEST(FaultInjectorWire, DuplicatesDeliverTwoCopies) {
  auto base = std::make_shared<InProcessTransport>(2, 0);
  FaultInjector inj(base, FaultPlan::parse("dup:0>1@1"));
  Message m = make_msg(0, 3, 5);
  ASSERT_EQ(inj.try_post(0, 1, m), PostResult::kDelivered);
  int copies = 0;
  while (auto got = inj.collect(1)) {
    EXPECT_EQ(got->payload, std::vector<std::uint8_t>{5});
    EXPECT_EQ(got->tag, 3);
    ++copies;
  }
  EXPECT_EQ(copies, 2);
  EXPECT_EQ(inj.stats().messages_duplicated, 1);
}

TEST(FaultInjectorWire, DelayParksUntilDestinationOps) {
  auto base = std::make_shared<InProcessTransport>(2, 0);
  FaultInjector inj(base, FaultPlan::parse("delay:0>1@1+3"));
  Message m = make_msg(0, 0, 8);
  ASSERT_EQ(inj.try_post(0, 1, m), PostResult::kDelivered);
  // Parked: not visible until rank 1 performs 3 further transport ops.
  EXPECT_FALSE(inj.collect(1).has_value());
  EXPECT_FALSE(inj.collect(1).has_value());
  auto got = inj.collect(1);  // 3rd op releases, delivered before collect
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, std::vector<std::uint8_t>{8});
  EXPECT_EQ(inj.stats().messages_delayed, 1);
}

TEST(FaultInjectorWire, KillFiresAtOpCountAndPoisonsStack) {
  auto base = std::make_shared<InProcessTransport>(2, 0);
  FaultInjector inj(base, FaultPlan::parse("kill:0@3"));
  EXPECT_FALSE(inj.collect(0).has_value());  // op 1
  EXPECT_FALSE(inj.probe(0, nullptr, nullptr));  // op 2
  EXPECT_THROW(inj.collect(0), TransportFailure);  // op 3: dead
  EXPECT_TRUE(inj.failed());
  EXPECT_EQ(inj.dead_ranks(), std::vector<int>{0});
  EXPECT_EQ(inj.stats().kills_fired, 1);
  // Every other rank's next operation now throws too.
  EXPECT_THROW(inj.collect(1), TransportFailure);
  // Sends to the dead rank before the poison propagated would have been
  // swallowed silently (posts_to_dead) — here the stack is already down.
}

// ------------------------------------------------------- chaos scenarios

/// Clean-reference cache: the fault-free lines per (case, shards), shared
/// across scenario tests (the sweep reruns the same topologies).
const std::string& clean_reference(int case_index, int shards) {
  static std::map<std::pair<int, int>, std::string> cache;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  auto key = std::make_pair(case_index, shards);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const ChaosCase c = chaos::chaos_cases()[static_cast<std::size_t>(
        case_index)];
    it = cache.emplace(key, chaos::clean_lines(c, 4, 2, shards)).first;
  }
  return it->second;
}

class ChaosScenario
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  ChaosCase chaos_case() const {
    return chaos::chaos_cases()[static_cast<std::size_t>(
        std::get<0>(GetParam()))];
  }
  int shards() const { return std::get<1>(GetParam()); }
  const std::string& clean() const {
    return clean_reference(std::get<0>(GetParam()), shards());
  }
  engine::EngineOptions options() const {
    return chaos::base_options(4, 2, shards());
  }
};

TEST_P(ChaosScenario, CleanRunIsDeterministic) {
  const ChaosCase c = chaos_case();
  ASSERT_FALSE(clean().empty());
  EXPECT_EQ(chaos::clean_lines(c, 4, 2, shards()), clean());
}

TEST_P(ChaosScenario, KillRankMidRunRecoversByteIdentical) {
  const ChaosCase c = chaos_case();
  auto opt = options();
  // A low trigger: every rank performs a dozen transport operations even
  // in the smallest family (idle polls count), so the kill always fires.
  opt.fault_plan = FaultPlan::parse("kill:1@12");
  const auto result = chaos::run_case(c, opt);
  EXPECT_EQ(chaos::result_lines(result, c.track_max), clean());
  EXPECT_GE(result.restarts, 1);
  ASSERT_EQ(result.failed_ranks.size(), 1u);
  EXPECT_EQ(result.failed_ranks[0], 1);
  EXPECT_EQ(result.fault_stats.kills_fired, 1);
}

TEST_P(ChaosScenario, DroppedMessagesRecoverViaStallRestart) {
  const ChaosCase c = chaos_case();
  auto opt = options();
  opt.fault_plan = FaultPlan::parse("drop:*>*@2");
  opt.recover_stall_seconds = 0.25;
  const auto result = chaos::run_case(c, opt);
  EXPECT_EQ(chaos::result_lines(result, c.track_max), clean());
  EXPECT_GE(result.fault_stats.messages_dropped, 1);
  EXPECT_GE(result.restarts, 1);
  EXPECT_TRUE(result.failed_ranks.empty());  // nobody died, messages did
}

TEST_P(ChaosScenario, DuplicatedMessagesAreDeduplicated) {
  const ChaosCase c = chaos_case();
  auto opt = options();
  opt.fault_plan = FaultPlan::parse("dup:*>*@2");
  const auto result = chaos::run_case(c, opt);
  EXPECT_EQ(chaos::result_lines(result, c.track_max), clean());
  EXPECT_GE(result.fault_stats.messages_duplicated, 1);
  EXPECT_EQ(result.restarts, 0);
}

TEST_P(ChaosScenario, DelayedMessagesReorderWithoutLoss) {
  const ChaosCase c = chaos_case();
  auto opt = options();
  opt.fault_plan = FaultPlan::parse("delay:*>*@2+6");
  const auto result = chaos::run_case(c, opt);
  EXPECT_EQ(chaos::result_lines(result, c.track_max), clean());
  EXPECT_GE(result.fault_stats.messages_delayed, 1);
  EXPECT_EQ(result.restarts, 0);
}

TEST_P(ChaosScenario, SlowNodeChangesNothingButTiming) {
  const ChaosCase c = chaos_case();
  auto opt = options();
  opt.fault_plan = FaultPlan::parse("slow:1@15");
  const auto result = chaos::run_case(c, opt);
  EXPECT_EQ(chaos::result_lines(result, c.track_max), clean());
  EXPECT_GE(result.fault_stats.slow_ops, 1);
  EXPECT_EQ(result.restarts, 0);
}

std::string scenario_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  const auto cases = chaos::chaos_cases();
  return cases[static_cast<std::size_t>(std::get<0>(info.param))].name +
         "_shards" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Faults, ChaosScenario,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1, 2)),
    scenario_name);

// ------------------------------------------------------------------ soak

TEST(ChaosSoak, RandomizedSeededPlans) {
  const auto cases = chaos::chaos_cases();
  const int iters = g_soak_iters;
  for (int i = 0; i < iters; ++i) {
    const unsigned seed = 7701u + static_cast<unsigned>(i);
    const int case_index = i % static_cast<int>(cases.size());
    const int shards = 1 + (i / static_cast<int>(cases.size())) % 2;
    const ChaosCase& c = cases[static_cast<std::size_t>(case_index)];
    const FaultPlan plan = FaultPlan::random(seed, 4);
    auto opt = chaos::base_options(4, 2, shards);
    opt.fault_plan = plan;
    opt.recover_stall_seconds = 0.2;
    const std::string replay =
        cat("chaos soak seed ", seed, " plan '", plan.to_string(), "' on ",
            c.name, " shards=", shards,
            " — replay with FaultPlan::parse(plan)");
    std::string got;
    try {
      got = chaos::result_lines(chaos::run_case(c, opt), c.track_max);
    } catch (const std::exception& e) {
      FAIL() << replay << " threw: " << e.what();
    }
    ASSERT_EQ(got, clean_reference(case_index, shards)) << replay;
  }
}

// ------------------------------------------------------------ checkpoint

runtime::CheckpointEdge<double> edge_to(IntVec consumer, int edge,
                                        std::vector<double> payload) {
  runtime::CheckpointEdge<double> e;
  e.consumer = std::move(consumer);
  e.edge = edge;
  e.payload = std::move(payload);
  return e;
}

TEST(CheckpointStore, RecordsAreIdempotent) {
  runtime::CheckpointStore<double> store;
  store.set_meta("t", "p", 2);
  std::vector<runtime::CheckpointEdge<double>> edges;
  edges.push_back(edge_to({0, 1}, 0, {1.5, 2.5}));
  store.tile_complete({0, 0}, std::move(edges));
  std::vector<runtime::CheckpointEdge<double>> again;
  again.push_back(edge_to({0, 1}, 0, {9.9}));  // would corrupt if applied
  store.tile_complete({0, 0}, std::move(again));
  EXPECT_EQ(store.completed(), 1);
  EXPECT_TRUE(store.executed({0, 0}));
  EXPECT_FALSE(store.executed({0, 1}));
  const auto doc = store.to_doc();
  ASSERT_EQ(doc.edges.size(), 1u);
  EXPECT_EQ(doc.edges[0].payload_bytes.size(), 2 * sizeof(double));
}

TEST(CheckpointStore, SeedRankCreditsAndDelivers) {
  runtime::CheckpointStore<double> store;
  store.set_meta("t", "p", 1);
  {
    std::vector<runtime::CheckpointEdge<double>> edges;
    edges.push_back(edge_to({1}, 0, {3.0}));
    store.tile_complete({2}, std::move(edges));
  }
  {
    std::vector<runtime::CheckpointEdge<double>> edges;
    edges.push_back(edge_to({0}, 0, {4.0}));  // consumer {0} not executed
    store.tile_complete({1}, std::move(edges));
  }
  // {1} executed, so its stored inbound edge must NOT be re-delivered;
  // {0} is live and gets its edge.
  runtime::ShardedTileTable<double> table(
      runtime::TileOrder({0}, {1}, runtime::PriorityPolicy::kColumnMajor),
      1);
  const long long credited = store.seed_rank(
      0, [](const IntVec&) { return 0; }, [](const IntVec&) { return 1; },
      table);
  EXPECT_EQ(credited, 2);  // {1} and {2}
  auto ready = table.pop(0);
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->tile, IntVec{0});
  ASSERT_EQ(ready->edges.size(), 1u);
  EXPECT_EQ(ready->edges[0].payload, std::vector<double>{4.0});
  EXPECT_FALSE(table.pop(0).has_value());
}

TEST(CheckpointJson, FileRoundTripPreservesEverything) {
  runtime::CheckpointStore<double> store;
  store.set_meta("roundtrip", "3 4", 2);
  {
    std::vector<runtime::CheckpointEdge<double>> edges;
    edges.push_back(edge_to({0, 1}, 0, {0.1, -2.25, 1e300}));
    edges.push_back(edge_to({1, 0}, 1, {}));
    store.tile_complete({0, 0}, std::move(edges));
  }
  store.tile_complete({1, 1}, {});
  const std::string path =
      ::testing::TempDir() + "dpgen_checkpoint_roundtrip.json";
  const std::string text = runtime::encode_checkpoint_json(store.to_doc());
  runtime::write_checkpoint_file(path, text);

  const runtime::CheckpointDoc loaded = runtime::load_checkpoint_json(path);
  EXPECT_EQ(loaded.problem, "roundtrip");
  EXPECT_EQ(loaded.params, "3 4");
  EXPECT_EQ(loaded.dim, 2);
  EXPECT_EQ(loaded.scalar_bytes, static_cast<int>(sizeof(double)));
  ASSERT_EQ(loaded.executed.size(), 2u);
  ASSERT_EQ(loaded.edges.size(), 2u);

  runtime::CheckpointStore<double> restored;
  restored.set_meta("roundtrip", "3 4", 2);
  restored.restore_from(loaded);
  // Hex payloads round-trip bit-exactly, so re-encoding is byte-identical.
  EXPECT_EQ(runtime::encode_checkpoint_json(restored.to_doc()), text);
  EXPECT_TRUE(restored.executed({1, 1}));
}

TEST(CheckpointJson, MatchesPublishedSchema) {
  runtime::CheckpointStore<double> store;
  store.set_meta("schema_check", "7", 1);
  {
    std::vector<runtime::CheckpointEdge<double>> edges;
    edges.push_back(edge_to({1}, 0, {2.0}));
    store.tile_complete({0}, std::move(edges));
  }
  runtime::ShardedTileTable<double> table(
      runtime::TileOrder({0}, {1}, runtime::PriorityPolicy::kColumnMajor),
      1);
  store.attach_table(0, &table);
  const std::string text = runtime::encode_checkpoint_json(store.to_doc());
  store.detach_table(0);

  std::ifstream schema_in(DPGEN_CHECKPOINT_SCHEMA);
  ASSERT_TRUE(schema_in.good()) << "cannot open " << DPGEN_CHECKPOINT_SCHEMA;
  std::stringstream schema_ss;
  schema_ss << schema_in.rdbuf();
  const auto schema = json::parse(schema_ss.str());
  const auto doc = json::parse(text);
  const std::vector<std::string> errors = json::validate(*schema, *doc);
  EXPECT_TRUE(errors.empty()) << errors.front() << "\nin: " << text;
}

TEST(CheckpointJson, CorruptFilesRejected) {
  const std::string dir = ::testing::TempDir();
  auto write = [&](const std::string& name, const std::string& text) {
    const std::string path = dir + name;
    std::ofstream out(path);
    out << text;
    return path;
  };
  EXPECT_THROW(runtime::load_checkpoint_json(dir + "missing_file.json"),
               Error);
  EXPECT_THROW(
      runtime::load_checkpoint_json(write("dpgen_ckpt_nonjson.json", "{nope")),
      Error);
  EXPECT_THROW(runtime::load_checkpoint_json(write(
                   "dpgen_ckpt_schema.json",
                   R"({"schema":"dpgen.checkpoint.v2","problem":"x","params":"",)"
                   R"("dim":1,"scalar_bytes":8,"completed_tiles":0,)"
                   R"("executed":[],"edges":[]})")),
               Error);
  EXPECT_THROW(runtime::load_checkpoint_json(write(
                   "dpgen_ckpt_count.json",
                   R"({"schema":"dpgen.checkpoint.v1","problem":"x","params":"",)"
                   R"("dim":1,"scalar_bytes":8,"completed_tiles":3,)"
                   R"("executed":[[0]],"edges":[]})")),
               Error);
  EXPECT_THROW(runtime::load_checkpoint_json(write(
                   "dpgen_ckpt_hex.json",
                   R"({"schema":"dpgen.checkpoint.v1","problem":"x","params":"",)"
                   R"("dim":1,"scalar_bytes":8,"completed_tiles":1,)"
                   R"("executed":[[0]],)"
                   R"("edges":[{"consumer":[1],"edge":0,"payload":"zz"}]})")),
               Error);
  EXPECT_THROW(runtime::detail::hex_to_bytes("abc"), Error);  // odd length
}

TEST(CheckpointResume, PartialCheckpointResumesToIdenticalOutput) {
  // Run a case fault-tolerantly with a checkpoint file, then knock a
  // checkerboard of tiles out of the 'executed' set and resume: the
  // surviving entries are credited, the holes re-execute from logged
  // edges, and the output matches the clean run byte for byte.
  const auto cases = chaos::chaos_cases();
  const ChaosCase& c = cases[1];  // lcs
  ASSERT_EQ(c.name, "lcs");
  const std::string path =
      ::testing::TempDir() + "dpgen_checkpoint_resume.json";

  auto opt = chaos::base_options(2, 2, 1);
  opt.fault_tolerant = true;
  opt.checkpoint_json_path = path;
  opt.checkpoint_every_tiles = 1;
  const auto full = chaos::run_case(c, opt);
  const std::string want = chaos::result_lines(full, c.track_max);
  EXPECT_EQ(want, chaos::clean_lines(c, 2, 2, 1));

  runtime::CheckpointDoc doc = runtime::load_checkpoint_json(path);
  const std::size_t total = doc.executed.size();
  ASSERT_GT(total, 4u);
  doc.executed.erase(
      std::remove_if(doc.executed.begin(), doc.executed.end(),
                     [](const IntVec& t) {
                       Int sum = 0;
                       for (Int v : t) sum += v;
                       return sum % 2 == 0;  // includes the objective tile
                     }),
      doc.executed.end());
  ASSERT_LT(doc.executed.size(), total);
  ASSERT_FALSE(doc.executed.empty());
  runtime::write_checkpoint_file(path,
                                 runtime::encode_checkpoint_json(doc));

  auto resume = chaos::base_options(2, 2, 1);
  resume.fault_tolerant = true;
  resume.resume_checkpoint_path = path;
  const auto resumed = chaos::run_case(c, resume);
  EXPECT_EQ(chaos::result_lines(resumed, c.track_max), want);
  // Only the holes re-executed.
  const long long executed =
      resumed.total(&runtime::RunStats::tiles_executed);
  EXPECT_EQ(executed, static_cast<long long>(total - doc.executed.size()));
}

TEST(CheckpointResume, OutOfRangeResumeInputRejected) {
  // The loader checks a checkpoint's shape; the launcher then checks it
  // against the problem before any rank starts.  Each document below
  // loads, as the loader fuzzer's out-of-range documents do, and must be
  // refused with a dpgen::Error instead of seeding the run: an edge index
  // past num_edges(), tiles outside the tile space, and payloads shorter
  // or longer than pack() makes for that edge.
  const auto cases = chaos::chaos_cases();
  const ChaosCase& c = cases[1];  // lcs
  const std::string path =
      ::testing::TempDir() + "dpgen_checkpoint_hostile.json";
  auto opt = chaos::base_options(2, 1, 1);
  opt.fault_tolerant = true;
  opt.checkpoint_json_path = path;
  (void)chaos::run_case(c, opt);
  const runtime::CheckpointDoc valid = runtime::load_checkpoint_json(path);
  ASSERT_FALSE(valid.edges.empty());
  ASSERT_FALSE(valid.executed.empty());

  auto resume_with = [&](const runtime::CheckpointDoc& doc) {
    runtime::write_checkpoint_file(path,
                                   runtime::encode_checkpoint_json(doc));
    auto resume = chaos::base_options(2, 1, 1);
    resume.fault_tolerant = true;
    resume.resume_checkpoint_path = path;
    (void)chaos::run_case(c, resume);
  };
  std::vector<std::pair<std::string, runtime::CheckpointDoc>> hostile;
  auto mutate = [&](const std::string& what, auto&& edit) {
    runtime::CheckpointDoc doc = valid;
    edit(doc);
    hostile.emplace_back(what, std::move(doc));
  };
  mutate("edge index 8", [](auto& d) { d.edges[0].edge = 8; });
  mutate("consumer outside the space",
         [](auto& d) { d.edges[0].consumer = {-3, 8}; });
  mutate("consumer of the wrong dim",
         [](auto& d) { d.edges[0].consumer = {0}; });
  mutate("executed tile outside the space",
         [](auto& d) { d.executed.push_back({99, 99}); });
  mutate("short payload", [](auto& d) {
    for (auto& e : d.edges)
      if (!e.payload_bytes.empty()) {
        e.payload_bytes.resize(e.payload_bytes.size() - sizeof(double));
        break;
      }
  });
  mutate("long payload", [](auto& d) {
    d.edges[0].payload_bytes.resize(
        d.edges[0].payload_bytes.size() + sizeof(double), 0);
  });
  for (const auto& [what, doc] : hostile)
    EXPECT_THROW(resume_with(doc), Error) << what;
  // The untouched document still resumes.
  EXPECT_NO_THROW(resume_with(valid));
}

TEST(CheckpointResume, MismatchedProblemRejected) {
  runtime::CheckpointDoc doc;
  doc.problem = "other";
  doc.params = "1";
  doc.dim = 1;
  doc.scalar_bytes = static_cast<int>(sizeof(double));
  runtime::CheckpointStore<double> store;
  store.set_meta("mine", "1", 1);
  EXPECT_THROW(store.restore_from(doc), Error);
  doc.problem = "mine";
  doc.scalar_bytes = 4;
  EXPECT_THROW(store.restore_from(doc), Error);
}

TEST(CheckpointEngine, KillWritesCheckpointAndEventsTellTheStory) {
  const auto cases = chaos::chaos_cases();
  const ChaosCase& c = cases[2];  // edit_distance
  const std::string ckpt =
      ::testing::TempDir() + "dpgen_checkpoint_kill.json";
  const std::string events =
      ::testing::TempDir() + "dpgen_chaos_events.jsonl";
  auto opt = chaos::base_options(4, 2, 2);
  opt.fault_plan = FaultPlan::parse("kill:2@25");
  opt.checkpoint_json_path = ckpt;
  opt.checkpoint_every_tiles = 4;
  opt.monitor_path = events;
  const auto result = chaos::run_case(c, opt);
  EXPECT_EQ(chaos::result_lines(result, c.track_max),
            clean_reference(2, 2));
  EXPECT_GE(result.restarts, 1);

  // The checkpoint on disk is complete and valid.
  const runtime::CheckpointDoc doc = runtime::load_checkpoint_json(ckpt);
  EXPECT_EQ(doc.problem, c.problem.spec.problem_name());
  EXPECT_GT(doc.executed.size(), 0u);

  // The single events log spans both attempts: run_start appears per
  // attempt, and the failure/restart pair explains the gap.
  std::ifstream in(events);
  ASSERT_TRUE(in.good());
  int run_starts = 0, rank_failed = 0, restarts = 0, run_ends = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto ev = json::parse(line);
    const std::string kind = ev->at("event").as_string();
    if (kind == "run_start") ++run_starts;
    if (kind == "rank_failed") {
      ++rank_failed;
      EXPECT_EQ(static_cast<int>(ev->at("rank").as_number()), 2);
      EXPECT_FALSE(ev->at("reason").as_string().empty());
    }
    if (kind == "restart") {
      ++restarts;
      EXPECT_GE(ev->at("attempt").as_number(), 1.0);
      EXPECT_EQ(static_cast<int>(ev->at("nranks").as_number()), 3);
    }
    if (kind == "run_end") ++run_ends;
  }
  EXPECT_EQ(run_starts, 2);
  EXPECT_EQ(rank_failed, 1);
  EXPECT_EQ(restarts, 1);
  EXPECT_EQ(run_ends, 2);
}

}  // namespace
}  // namespace dpgen

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string flag = "--chaos-iters=";
    if (arg.rfind(flag, 0) == 0)
      dpgen::g_soak_iters = std::atoi(arg.c_str() + flag.size());
  }
  return RUN_ALL_TESTS();
}
