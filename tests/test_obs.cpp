// Tests for the observability subsystem: metrics instruments, the span
// tracer, Chrome trace-event export, and the end-to-end multi-rank path —
// a real engine run whose exported timeline is validated structurally and
// whose counters must satisfy conservation laws (every sent edge is
// delivered, every owned tile is executed exactly once).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "json_util.hpp"
#include "obs/export.hpp"
#include "obs/gather.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "tiling/balance.hpp"

namespace dpgen {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Metrics, CounterGaugeHistogramBasics) {
  obs::Counter c;
  c.add(5);
  c.increment();
  EXPECT_EQ(c.value(), 6);

  obs::Gauge g;
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 7);

  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(1024);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1030);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 1024);
  EXPECT_EQ(h.bucket(0), 1);  // the zero observation
  EXPECT_EQ(h.bucket(1), 1);  // 1 lands in [1,2)
  EXPECT_EQ(h.bucket(3), 1);  // 5 lands in [4,8)
  EXPECT_EQ(h.bucket(11), 1);  // 1024 lands in [1024,2048)
}

TEST(Metrics, RegistryJsonParsesAndKeepsHandles) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test_obs.events");
  obs::Counter& c2 = reg.counter("test_obs.events");
  EXPECT_EQ(&c, &c2);  // same name, same instrument
  c.add(42);
  reg.gauge("test_obs.level").set(9);
  reg.histogram("test_obs.sizes").observe(100);

  auto doc = json::parse(reg.to_json());
  EXPECT_EQ(doc->at("counters").at("test_obs.events").as_number(), 42);
  EXPECT_EQ(doc->at("gauges").at("test_obs.level").at("value").as_number(),
            9);
  const auto& hist = doc->at("histograms").at("test_obs.sizes");
  EXPECT_EQ(hist.at("count").as_number(), 1);
  EXPECT_EQ(hist.at("sum").as_number(), 100);
}

TEST(Metrics, HistogramQuantilesInterpolateLog2Buckets) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty

  // A single observation is every quantile (clamped to [min, max]).
  h.observe(100);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);

  // 50 ones + 50 at 1024: the lower quantiles interpolate inside the
  // [1, 2) bucket, the upper ones clamp to the recorded max.
  obs::Histogram h2;
  for (int i = 0; i < 50; ++i) h2.observe(1);
  for (int i = 0; i < 50; ++i) h2.observe(1024);
  EXPECT_DOUBLE_EQ(h2.quantile(0.25), 1.49);  // rank 25 of 50 in [1, 2)
  EXPECT_DOUBLE_EQ(h2.quantile(0.75), 1024.0);
  EXPECT_LE(h2.quantile(0.5), h2.quantile(0.95));
  EXPECT_LE(h2.quantile(0.95), h2.quantile(0.99));

  // All-zero observations sit in the dedicated zero bucket.
  obs::Histogram h3;
  h3.observe(0);
  h3.observe(0);
  EXPECT_DOUBLE_EQ(h3.quantile(0.99), 0.0);
}

TEST(Metrics, QuantilesAppearInTextAndJson) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test_obs.quantiles");
  for (int i = 1; i <= 100; ++i) h.observe(i);

  auto doc = json::parse(reg.to_json());
  const auto& hist = doc->at("histograms").at("test_obs.quantiles");
  ASSERT_TRUE(hist.has("p50"));
  ASSERT_TRUE(hist.has("p95"));
  ASSERT_TRUE(hist.has("p99"));
  EXPECT_LE(hist.at("p50").as_number(), hist.at("p95").as_number());
  EXPECT_LE(hist.at("p95").as_number(), hist.at("p99").as_number());
  EXPECT_GE(hist.at("p50").as_number(), hist.at("min").as_number());
  EXPECT_LE(hist.at("p99").as_number(), hist.at("max").as_number());

  std::string text = reg.to_text();
  EXPECT_NE(text.find("test_obs.quantiles.p50"), std::string::npos);
  EXPECT_NE(text.find("test_obs.quantiles.p99"), std::string::npos);
}

TEST(Export, ChromeTraceCarriesDroppedSpanCount) {
  std::vector<obs::Span> spans(1);
  spans[0].start_ns = 0;
  spans[0].end_ns = 10;
  spans[0].phase = obs::Phase::kTileExecute;

  auto doc = json::parse(obs::chrome_trace_json(spans, /*dropped=*/5));
  EXPECT_EQ(doc->at("metadata").at("spans_dropped").as_number(), 5);
  auto clean = json::parse(obs::chrome_trace_json(spans));
  EXPECT_EQ(clean->at("metadata").at("spans_dropped").as_number(), 0);
}

TEST(Tracer, RecordsPerThreadAndCollectsByRank) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";
  obs::Session session(/*trace=*/true, /*msgtrace=*/false);

  constexpr int kThreads = 4;
  constexpr int kSpansEach = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &session] {
      obs::ThreadBinding binding(&session, /*rank=*/7, /*thread=*/t);
      for (int i = 0; i < kSpansEach; ++i) {
        IntVec tile{t, i};
        std::int64_t now = obs::now_ns();
        obs::record_span(obs::Phase::kTileExecute, now, now + 10, &tile);
      }
    });
  }
  for (auto& th : threads) th.join();

  auto spans = session.spans().collect_rank(7);
  ASSERT_EQ(spans.size(), kThreads * kSpansEach);
  std::set<int> seen_threads;
  for (const auto& s : spans) {
    EXPECT_EQ(s.rank, 7);
    EXPECT_EQ(s.ncoord, 2);
    EXPECT_GE(s.end_ns, s.start_ns);
    seen_threads.insert(s.thread);
  }
  EXPECT_EQ(seen_threads.size(), kThreads);
  EXPECT_EQ(session.spans().dropped(), 0u);
  EXPECT_TRUE(session.spans().collect_rank(12345).empty());
  session.spans().clear();
  EXPECT_TRUE(session.spans().collect_rank(7).empty());
}

// Recording is off on a thread bound to a non-tracing Session, on an
// unbound thread, and again once a binding to a tracing Session ends.
TEST(Tracer, DisabledRecordingIsANoOp) {
  obs::Session traced(/*trace=*/true, /*msgtrace=*/false);
  obs::Session untraced(/*trace=*/false, /*msgtrace=*/false);
  {
    obs::ThreadBinding binding(&untraced, /*rank=*/0, /*thread=*/0);
    EXPECT_FALSE(obs::tracing());
    obs::ScopedSpan span(obs::Phase::kIdle);
  }
  {
    obs::ThreadBinding binding(&traced, /*rank=*/0, /*thread=*/0);
    EXPECT_EQ(obs::tracing(), obs::kTraceCompiled);
    {
      obs::ThreadBinding nested(nullptr, /*rank=*/0, /*thread=*/0);
      obs::ScopedSpan span(obs::Phase::kIdle);
    }
    obs::ScopedSpan span(obs::Phase::kPoll);
  }
  EXPECT_FALSE(obs::tracing());
  obs::record_span(obs::Phase::kIdle, 0, 1);
  EXPECT_TRUE(untraced.spans().collect_rank(0).empty());
  const auto spans = traced.spans().collect_rank(0);
  ASSERT_EQ(spans.size(), obs::kTraceCompiled ? 1u : 0u);
  if (!spans.empty()) {
    EXPECT_EQ(spans[0].phase, obs::Phase::kPoll);
  }
}

TEST(Tracer, SpanSerializationRoundTrips) {
  std::vector<obs::Span> spans(3);
  spans[0].start_ns = 10;
  spans[0].end_ns = 20;
  spans[0].rank = 1;
  spans[0].thread = 2;
  spans[0].phase = obs::Phase::kPack;
  spans[0].ncoord = 2;
  spans[0].coord[0] = 5;
  spans[0].coord[1] = -3;
  spans[2].phase = obs::Phase::kBarrier;

  auto bytes = obs::serialize_records(spans);
  bytes.resize(bytes.size() + 37);  // gather pads buffers; must tolerate
  auto back = obs::deserialize_records<obs::Span>(bytes.data(), bytes.size());
  ASSERT_EQ(back.size(), spans.size());
  EXPECT_EQ(back[0].start_ns, 10);
  EXPECT_EQ(back[0].coord[1], -3);
  EXPECT_EQ(back[0].phase, obs::Phase::kPack);
  EXPECT_EQ(back[2].phase, obs::Phase::kBarrier);

  // Hostile counts are rejected with a dpgen::Error, never sized from: a
  // count whose byte length wraps to a small number must not pass the
  // length check.
  auto hostile = [](std::uint64_t count) {
    std::vector<std::uint8_t> buf(40, 0);
    std::memcpy(buf.data(), &count, sizeof(count));
    return buf;
  };
  const auto span_wrap = hostile(UINT64_MAX / sizeof(obs::Span) + 1);
  EXPECT_THROW(obs::deserialize_records<obs::Span>(span_wrap.data(),
                                                   span_wrap.size()),
               Error);
  const auto msg_wrap = hostile(UINT64_MAX / sizeof(obs::MsgRecord) + 1);
  EXPECT_THROW(obs::deserialize_records<obs::MsgRecord>(msg_wrap.data(),
                                                        msg_wrap.size()),
               Error);
  const auto one_too_many = hostile(1);
  EXPECT_THROW(obs::deserialize_records<obs::Span>(one_too_many.data(),
                                                   one_too_many.size()),
               Error);
}

TEST(Export, ChromeTraceShape) {
  std::vector<obs::Span> spans(2);
  spans[0].start_ns = 1000;
  spans[0].end_ns = 2500;
  spans[0].rank = 0;
  spans[0].thread = 1;
  spans[0].phase = obs::Phase::kTileExecute;
  spans[0].ncoord = 2;
  spans[0].coord[0] = 3;
  spans[0].coord[1] = 4;
  spans[1].start_ns = 0;
  spans[1].end_ns = 50;
  spans[1].rank = -1;  // setup span
  spans[1].phase = obs::Phase::kLoadBalance;

  auto doc = json::parse(obs::chrome_trace_json(spans));
  const auto& events = doc->at("traceEvents").as_array();
  int x_events = 0, m_events = 0;
  for (const auto& ev : events) {
    const std::string& ph = ev->at("ph").as_string();
    if (ph == "X") {
      ++x_events;
      EXPECT_GE(ev->at("dur").as_number(), 0.0);
      EXPECT_TRUE(ev->has("pid"));
      EXPECT_TRUE(ev->has("tid"));
    } else {
      EXPECT_EQ(ph, "M");
      ++m_events;
    }
  }
  EXPECT_EQ(x_events, 2);
  EXPECT_GE(m_events, 2);  // at least one track-name pair
  // The tile-execute event carries its coordinates in the name.
  bool found = false;
  for (const auto& ev : events)
    if (ev->at("ph").as_string() == "X" &&
        ev->at("name").as_string().find("(3, 4)") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

// End-to-end: a 2-rank x 2-thread engine run with tracing on.  Checks the
// exported timeline structurally and the counters against conservation
// laws the scheduler must satisfy.
TEST(ObsEndToEnd, MultiRankTraceAndConservation) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "built with DPGEN_TRACE=0";

  // Lattice-path counting on [0,N]^2 (same recurrence as test_engine).
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
  std::string trace_path = testing::TempDir() + "/dpgen_obs_trace.json";
  std::string metrics_path = testing::TempDir() + "/dpgen_obs_metrics.json";
  opt.trace_json_path = trace_path;
  opt.metrics_json_path = metrics_path;

  auto center = [](const engine::Cell& c) {
    double v = 0.0;
    int any = 0;
    if (c.valid[0]) { v += c.V[c.loc_dep[0]]; any = 1; }
    if (c.valid[1]) { v += c.V[c.loc_dep[1]]; any = 1; }
    c.V[c.loc] = any ? v : 1.0;
  };
  auto result = engine::run(model, params, center, opt);

  // Conservation: each rank executes exactly the tiles it owns...
  tiling::LoadBalancer balancer(model, params, opt.ranks, opt.balance);
  ASSERT_EQ(result.rank_stats.size(), 2u);
  long long total_tiles = 0;
  for (int r = 0; r < opt.ranks; ++r) {
    EXPECT_EQ(result.rank_stats[static_cast<std::size_t>(r)].tiles_executed,
              balancer.owned_tiles(r))
        << "rank " << r;
    total_tiles +=
        result.rank_stats[static_cast<std::size_t>(r)].tiles_executed;
  }
  EXPECT_EQ(total_tiles, model.total_tiles(params));

  // ...and every produced edge (local or remote) is delivered exactly once.
  long long sent = 0, delivered = 0;
  for (const auto& st : result.rank_stats) {
    sent += st.local_edges + st.remote_edges;
    delivered += st.table.delivered_edges;
    EXPECT_GE(st.idle_seconds, 0.0);
    EXPECT_GE(st.blocked_send_seconds, 0.0);
  }
  EXPECT_EQ(sent, delivered);

  // The exported trace parses, and has one tile-execute X event per
  // executed tile with sane timestamps and rank/thread track ids.
  auto doc = json::parse(read_file(trace_path));
  long long tile_events = 0;
  std::set<std::pair<int, int>> tracks;
  for (const auto& ev : doc->at("traceEvents").as_array()) {
    if (ev->at("ph").as_string() != "X") continue;
    EXPECT_GE(ev->at("ts").as_number(), 0.0);
    EXPECT_GE(ev->at("dur").as_number(), 0.0);
    int pid = static_cast<int>(ev->at("pid").as_number());
    int tid = static_cast<int>(ev->at("tid").as_number());
    if (ev->at("cat").as_string() == "tile_execute") {
      ++tile_events;
      EXPECT_TRUE(pid == 0 || pid == 1) << "unexpected rank track " << pid;
      tracks.insert({pid, tid});
    }
  }
  EXPECT_EQ(tile_events, model.total_tiles(params));
  EXPECT_GT(tracks.size(), 1u) << "expected multiple rank x thread tracks";

  // The metrics dump parses and covers the runtime counters.
  auto metrics = json::parse(read_file(metrics_path));
  EXPECT_EQ(metrics->at("counters").at("runtime.tiles_executed").as_number(),
            static_cast<double>(model.total_tiles(params)));
  EXPECT_TRUE(metrics->at("histograms").has("runtime.tile_latency_ns"));

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace dpgen
