// Unit tests for the runtime scheduling structures: tile priority order
// (Fig. 5), the pending-tile table / ready queue (section V.B) and the edge
// message wire format.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <thread>

#include "runtime/driver.hpp"
#include "runtime/order.hpp"
#include "runtime/tile_table.hpp"

namespace dpgen::runtime {
namespace {

TEST(TileOrderCmp, ColumnMajorPrefersMostAdvanced) {
  // 2D, both dims positive deps: execution runs from high indices to low,
  // so the tile furthest along (smaller t0, the balanced dim) runs first —
  // it is the one that feeds the neighbouring rank.
  TileOrder o({0, 1}, {1, 1}, PriorityPolicy::kColumnMajor);
  EXPECT_TRUE(o.earlier({2, 9}, {3, 0}));
  EXPECT_TRUE(o.earlier({2, 4}, {2, 5}));
  EXPECT_FALSE(o.earlier({2, 5}, {2, 4}));
  EXPECT_FALSE(o.earlier({1, 1}, {1, 1}));  // irreflexive
}

TEST(TileOrderCmp, DimPriorityReordersSignificance) {
  // dim 1 most significant: smaller t1 wins regardless of t0.
  TileOrder o({1, 0}, {1, 1}, PriorityPolicy::kColumnMajor);
  EXPECT_TRUE(o.earlier({9, 2}, {0, 3}));
}

TEST(TileOrderCmp, NegativeSignFlipsDirection) {
  // dim 0 has negative deps: execution low -> high, so larger t0 is
  // further along and runs first.
  TileOrder o({0}, {-1}, PriorityPolicy::kColumnMajor);
  EXPECT_TRUE(o.earlier({2}, {1}));
  EXPECT_FALSE(o.earlier({1}, {2}));
}

TEST(TileOrderCmp, LevelSetComparesDiagonals) {
  TileOrder o({0, 1}, {1, 1}, PriorityPolicy::kLevelSet);
  // Wavefront order: the less-progressed level set (larger coordinate sum
  // under positive deps) runs first.
  EXPECT_TRUE(o.earlier({2, 2}, {3, 0}));
  EXPECT_TRUE(o.earlier({1, 3}, {2, 1}));
  // Same level: ties broken by the column-major rule (most advanced in
  // the priority dim first).
  EXPECT_TRUE(o.earlier({2, 2}, {3, 1}));
}

TEST(TileOrderCmp, StrictWeakOrderingOnGrid) {
  for (auto policy : {PriorityPolicy::kColumnMajor, PriorityPolicy::kLevelSet}) {
    TileOrder o({0, 1}, {1, -1}, policy);
    std::vector<IntVec> tiles;
    for (Int a = 0; a < 4; ++a)
      for (Int b = 0; b < 4; ++b) tiles.push_back({a, b});
    for (const auto& x : tiles)
      for (const auto& y : tiles) {
        EXPECT_FALSE(o.earlier(x, y) && o.earlier(y, x));
        if (x != y) {
          EXPECT_TRUE(o.earlier(x, y) || o.earlier(y, x));
        }
      }
  }
}

TileOrder default_order() {
  return TileOrder({0, 1}, {1, 1}, PriorityPolicy::kColumnMajor);
}

TEST(TileTableOps, SeededTileIsImmediatelyReady) {
  TileTable<double> table(default_order());
  table.seed_ready({2, 2});
  auto t = table.pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tile, (IntVec{2, 2}));
  EXPECT_TRUE(t->edges.empty());
  EXPECT_FALSE(table.pop().has_value());
}

TEST(TileTableOps, TileReadyOnlyWhenAllDepsDelivered) {
  TileTable<double> table(default_order());
  auto two_deps = [](const IntVec&) { return 2; };
  table.deliver({1, 1}, two_deps, {0, {1.0}});
  EXPECT_FALSE(table.pop().has_value());
  table.deliver({1, 1}, two_deps, {1, {2.0, 3.0}});
  auto t = table.pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tile, (IntVec{1, 1}));
  ASSERT_EQ(t->edges.size(), 2u);
  EXPECT_EQ(t->edges[0].edge, 0);
  EXPECT_EQ(t->edges[1].payload, (std::vector<double>{2.0, 3.0}));
}

TEST(TileTableOps, PopRespectsPriority) {
  TileTable<double> table(default_order());
  table.seed_ready({0, 5});
  table.seed_ready({3, 1});
  table.seed_ready({3, 4});
  EXPECT_EQ(table.pop()->tile, (IntVec{0, 5}));
  EXPECT_EQ(table.pop()->tile, (IntVec{3, 1}));
  EXPECT_EQ(table.pop()->tile, (IntVec{3, 4}));
}

TEST(TileTableOps, StatsTrackPeaks) {
  TileTable<double> table(default_order());
  auto one_dep = [](const IntVec&) { return 1; };
  auto two_deps = [](const IntVec&) { return 2; };
  table.deliver({0, 0}, two_deps, {0, {1.0, 2.0}});
  table.deliver({0, 1}, one_dep, {1, {3.0}});  // becomes ready
  auto s = table.stats();
  EXPECT_EQ(s.delivered_edges, 2);
  EXPECT_EQ(s.peak_pending_tiles, 2);  // both seen pending at some point
  EXPECT_EQ(s.peak_buffered_edges, 2);
  EXPECT_EQ(s.peak_buffered_scalars, 3);
  (void)table.pop();  // pops {0,1}; its edge memory released
  table.deliver({0, 0}, two_deps, {1, {4.0}});
  (void)table.pop();
  EXPECT_TRUE(table.idle());
}

TEST(TileTableOps, IdleReflectsState) {
  TileTable<float> table(default_order());
  EXPECT_TRUE(table.idle());
  table.deliver({0, 0}, [](const IntVec&) { return 2; }, {0, {}});
  EXPECT_FALSE(table.idle());
}

TEST(ShardedTable, SingleShardBehavesLikePlainTable) {
  TileOrder order = default_order();
  ShardedTileTable<double> table(order, 1);
  table.seed_ready({0, 5});
  table.seed_ready({3, 1});
  EXPECT_EQ(table.pop(0)->tile, (IntVec{0, 5}));
  EXPECT_EQ(table.pop(0)->tile, (IntVec{3, 1}));
  EXPECT_FALSE(table.pop(0).has_value());
}

TEST(ShardedTable, StealingFindsWorkInOtherShards) {
  ShardedTileTable<double> table(default_order(), 4);
  table.seed_ready({1, 1});  // lands in hash(tile) % 4
  // Whatever the preferred shard, the single ready tile must be found.
  for (int preferred = 0; preferred < 4; ++preferred) {
    auto t = table.pop(preferred);
    ASSERT_TRUE(t.has_value()) << "preferred " << preferred;
    table.seed_ready(t->tile);  // put it back for the next round
  }
}

TEST(ShardedTable, DeliverRoutesConsistently) {
  ShardedTileTable<double> table(default_order(), 3);
  auto two = [](const IntVec&) { return 2; };
  table.deliver({2, 2}, two, {0, {1.0}});
  EXPECT_FALSE(table.pop(0).has_value());  // still pending
  table.deliver({2, 2}, two, {1, {2.0}});  // same shard via same hash
  auto t = table.pop(0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->edges.size(), 2u);
  EXPECT_TRUE(table.idle());
}

TEST(ShardedTable, StatsAggregateAcrossShards) {
  ShardedTileTable<float> table(default_order(), 2);
  auto one = [](const IntVec&) { return 1; };
  table.deliver({0, 0}, one, {0, {1.0f, 2.0f}});
  table.deliver({5, 5}, one, {0, {3.0f}});
  auto s = table.stats();
  EXPECT_EQ(s.delivered_edges, 2);
  EXPECT_EQ(s.peak_buffered_scalars, 3);
  EXPECT_THROW(ShardedTileTable<float>(default_order(), 0), Error);
}

TEST(ShardedTable, ReadyPeakIsSimultaneousNotSummed) {
  // Tiles become ready one at a time and are popped immediately, spread
  // over both shards.  The rank-level peak must be 1 — summing per-shard
  // peaks (the old bug) would report 2.
  ShardedTileTable<float> table(default_order(), 2);
  auto one = [](const IntVec&) { return 1; };
  for (Int i = 0; i < 8; ++i) {
    table.deliver({i, i + 1}, one, {0, {1.0f}});
    ASSERT_TRUE(table.pop(0).has_value());
  }
  EXPECT_EQ(table.stats().peak_ready_tiles, 1);
}

TEST(ShardedTable, ReadyPeakTracksSimultaneousDepth) {
  ShardedTileTable<float> table(default_order(), 2);
  for (Int i = 0; i < 5; ++i) table.seed_ready({i, i});
  EXPECT_EQ(table.stats().peak_ready_tiles, 5);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(table.pop(i).has_value());
  EXPECT_FALSE(table.pop(0).has_value());
  EXPECT_EQ(table.stats().peak_ready_tiles, 5);  // peak, not current depth
}

TEST(EdgeWire, EncodeDecodeRoundTrip) {
  std::vector<double> payload{1.5, -2.25, 0.0};
  auto buf = detail::encode_edge<double>(3, {4, -1, 7}, payload);
  int edge = -1;
  IntVec consumer;
  std::vector<double> out;
  detail::decode_edge<double>(buf, 3, 8, &edge, &consumer, &out);
  EXPECT_EQ(edge, 3);
  EXPECT_EQ(consumer, (IntVec{4, -1, 7}));
  EXPECT_EQ(out, payload);
}

TEST(EdgeWire, EmptyPayloadRoundTrip) {
  auto buf = detail::encode_edge<float>(0, {9}, {});
  int edge = -1;
  IntVec consumer;
  std::vector<float> out;
  detail::decode_edge<float>(buf, 1, 8, &edge, &consumer, &out);
  EXPECT_EQ(edge, 0);
  EXPECT_EQ(consumer, (IntVec{9}));
  EXPECT_TRUE(out.empty());
}

TEST(EdgeWire, TruncatedMessageRejected) {
  auto buf = detail::encode_edge<double>(1, {2, 3}, {1.0});
  buf.pop_back();
  int edge;
  IntVec consumer;
  std::vector<double> out;
  EXPECT_THROW(detail::decode_edge<double>(buf, 2, 8, &edge, &consumer, &out),
               Error);
}

TEST(EdgeWire, MalformedHeadersRejected) {
  // A valid message we then corrupt field by field; header layout is
  // [edge, count, consumer...] as Int (8 bytes each).
  auto valid = detail::encode_edge<double>(1, {2, 3}, {1.0, 2.0});
  int edge;
  IntVec consumer;
  std::vector<double> out;

  auto corrupt = [&](std::size_t field, Int value) {
    auto buf = valid;
    std::memcpy(buf.data() + field * sizeof(Int), &value, sizeof(Int));
    return buf;
  };

  // Edge index out of range: negative or >= num_edges.
  EXPECT_THROW(detail::decode_edge<double>(corrupt(0, -1), 2, 8, &edge,
                                           &consumer, &out),
               Error);
  EXPECT_THROW(detail::decode_edge<double>(corrupt(0, 8), 2, 8, &edge,
                                           &consumer, &out),
               Error);
  // Negative payload count.
  EXPECT_THROW(detail::decode_edge<double>(corrupt(1, -1), 2, 8, &edge,
                                           &consumer, &out),
               Error);
  // Payload count overflowing the buffer (count * sizeof(S) would wrap).
  EXPECT_THROW(detail::decode_edge<double>(
                   corrupt(1, std::numeric_limits<Int>::max()), 2, 8, &edge,
                   &consumer, &out),
               Error);
  // Count claims more scalars than the buffer holds.
  EXPECT_THROW(detail::decode_edge<double>(corrupt(1, 3), 2, 8, &edge,
                                           &consumer, &out),
               Error);
  // Buffer shorter than the fixed header.
  std::vector<std::uint8_t> tiny(detail::edge_wire_header(2) - 1, 0);
  EXPECT_THROW(
      detail::decode_edge<double>(tiny, 2, 8, &edge, &consumer, &out), Error);
  // The uncorrupted message still decodes.
  detail::decode_edge<double>(valid, 2, 8, &edge, &consumer, &out);
  EXPECT_EQ(edge, 1);
  EXPECT_EQ(consumer, (IntVec{2, 3}));
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
}

TEST(EdgeWire, FloatScalarsSupported) {
  std::vector<float> payload{1.0f, 2.0f};
  auto buf = detail::encode_edge<float>(2, {0, 0}, payload);
  int edge;
  IntVec consumer;
  std::vector<float> out;
  detail::decode_edge<float>(buf, 2, 8, &edge, &consumer, &out);
  EXPECT_EQ(out, payload);
}

TEST(RuntimeSnapshot, TracksPendingReadyBuffered) {
  ShardedTileTable<double> table(default_order(), 2);
  auto two = [](const IntVec&) { return 2; };
  table.deliver({1, 1}, two, {0, {1.0}});
  TableSnapshot s = table.snapshot();
  EXPECT_EQ(s.pending_tiles, 1);
  EXPECT_EQ(s.ready_tiles, 0);
  EXPECT_EQ(s.buffered_edges, 1);
  table.deliver({1, 1}, two, {1, {2.0}});
  s = table.snapshot();
  EXPECT_EQ(s.pending_tiles, 0);
  EXPECT_EQ(s.ready_tiles, 1);
  EXPECT_EQ(s.buffered_edges, 2);  // ready tiles still hold their edges
  ASSERT_TRUE(table.pop(0).has_value());
  s = table.snapshot();
  EXPECT_EQ(s.pending_tiles, 0);
  EXPECT_EQ(s.ready_tiles, 0);
  EXPECT_EQ(s.buffered_edges, 0);
}

TEST(RuntimeSnapshot, ConcurrentWithDeliverAndPop) {
  // The monitor samples snapshot() from outside the worker threads while
  // edges stream in and tiles are popped.  Every tile needs exactly two
  // edges, so any consistent observation satisfies
  //   buffered_edges == pending_tiles + 2 * ready_tiles
  // per shard — and the sum of per-shard identities is the identity on
  // the summed snapshot, no matter when each shard was read.
  constexpr Int kTiles = 2000;
  ShardedTileTable<double> table(default_order(), 4);
  auto two = [](const IntVec&) { return 2; };
  std::atomic<bool> done{false};
  // Start latch: the workers wait until the main thread is about to take
  // its first snapshot, so the observations overlap the run even when the
  // main thread is scheduled late.
  std::atomic<bool> started{false};
  auto await_start = [&] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  };

  std::thread producer([&] {
    await_start();
    for (Int i = 0; i < kTiles; ++i) {
      table.deliver({i, i + 1}, two, {0, {1.0}});
      table.deliver({i, i + 1}, two, {1, {2.0, 3.0}});
    }
  });
  std::thread consumer([&] {
    await_start();
    Int popped = 0;
    while (popped < kTiles) {
      auto t = table.pop(static_cast<int>(popped) % 4);
      if (t) {
        EXPECT_EQ(t->edges.size(), 2u);
        ++popped;
      }
    }
    done.store(true, std::memory_order_release);
  });

  long long observations = 0;
  started.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    TableSnapshot s = table.snapshot();
    EXPECT_GE(s.pending_tiles, 0);
    EXPECT_GE(s.ready_tiles, 0);
    EXPECT_GE(s.buffered_edges, 0);
    EXPECT_LE(s.pending_tiles, kTiles);
    EXPECT_EQ(s.buffered_edges, s.pending_tiles + 2 * s.ready_tiles);
    ++observations;
  }
  producer.join();
  consumer.join();
  EXPECT_GT(observations, 0);

  TableSnapshot end = table.snapshot();
  EXPECT_EQ(end.pending_tiles, 0);
  EXPECT_EQ(end.ready_tiles, 0);
  EXPECT_EQ(end.buffered_edges, 0);
  EXPECT_TRUE(table.idle());
}

// --- checkpoint/restart state round-trips (tests/test_faults.cpp holds the
// engine-level restart suite; these cover the table layer in isolation) ---

TEST(TableStateRoundTrip, PendingAndReadySurviveExportRestore) {
  TileTable<double> src(default_order());
  auto two_deps = [](const IntVec&) { return 2; };
  auto three_deps = [](const IntVec&) { return 3; };
  src.seed_ready({4, 4});
  src.deliver({1, 1}, two_deps, {0, {1.0}});              // pending, 1/2
  src.deliver({2, 2}, three_deps, {1, {2.0, 3.0}});       // pending, 1/3
  src.deliver({2, 2}, three_deps, {2, {4.0}});            // pending, 2/3
  src.deliver({3, 3}, two_deps, {0, {5.0}});              // goes ready below
  src.deliver({3, 3}, two_deps, {1, {6.0}});

  const TableState<double> state = src.export_state();
  EXPECT_EQ(state.pending.size(), 2u);
  EXPECT_EQ(state.ready.size(), 2u);

  TileTable<double> dst(default_order());
  dst.restore_state(state);
  TableSnapshot before = src.snapshot(), after = dst.snapshot();
  EXPECT_EQ(after.pending_tiles, before.pending_tiles);
  EXPECT_EQ(after.ready_tiles, before.ready_tiles);
  EXPECT_EQ(after.buffered_edges, before.buffered_edges);

  // The restored table completes exactly like the original would: the
  // missing dependencies arrive and every tile pops in priority order
  // with its full edge set.
  dst.deliver({1, 1}, two_deps, {1, {7.0}});
  dst.deliver({2, 2}, three_deps, {0, {8.0}});
  std::vector<IntVec> order;
  while (auto t = dst.pop()) {
    if (t->tile == (IntVec{1, 1}) || t->tile == (IntVec{2, 2})) {
      EXPECT_EQ(t->edges.size(), t->tile == (IntVec{2, 2}) ? 3u : 2u);
    }
    order.push_back(t->tile);
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_TRUE(dst.idle());
}

TEST(TableStateRoundTrip, RestoredReadyTileKeepsDuplicateGuard) {
  // A tile that went ready before the export must reject re-delivered
  // edges after the restore — otherwise a restart under a duplicating
  // fault would re-execute it (the double-execution bug the chaos suite's
  // smith_waterman case caught on the live path).
  TileTable<double> src(default_order());
  auto one_dep = [](const IntVec&) { return 1; };
  src.deliver({0, 1}, one_dep, {0, {1.5}});  // immediately ready
  TileTable<double> dst(default_order());
  dst.restore_state(src.export_state());
  dst.deliver({0, 1}, one_dep, {0, {1.5}});  // duplicate of the same edge
  EXPECT_EQ(dst.stats().duplicate_edges, 1);
  auto t = dst.pop();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tile, (IntVec{0, 1}));
  EXPECT_FALSE(dst.pop().has_value());  // not resurrected
  EXPECT_TRUE(dst.idle());
}

TEST(TableStateRoundTrip, TombstonedSlotsAreNotExported) {
  // Tiles that went ready (tombstoned slots) and recycled containers must
  // not leak into the export: only genuinely pending tiles and the
  // not-yet-popped ready queue travel.
  TileTable<double> table(default_order());
  auto one_dep = [](const IntVec&) { return 1; };
  auto two_deps = [](const IntVec&) { return 2; };
  for (Int i = 0; i < 8; ++i)
    table.deliver({i, i}, one_dep, {0, {static_cast<double>(i)}});
  for (int i = 0; i < 8; ++i) {
    auto t = table.pop();
    ASSERT_TRUE(t.has_value());
    table.recycle(std::move(*t));
  }
  table.deliver({9, 0}, two_deps, {0, {42.0}});
  const TableState<double> state = table.export_state();
  ASSERT_EQ(state.pending.size(), 1u);
  EXPECT_EQ(state.pending[0].tile, (IntVec{9, 0}));
  EXPECT_EQ(state.pending[0].waiting, 1);
  ASSERT_EQ(state.pending[0].edges.size(), 1u);
  EXPECT_EQ(state.pending[0].edges[0].payload, (std::vector<double>{42.0}));
  EXPECT_TRUE(state.ready.empty());
}

TEST(TableStateRoundTrip, ShardedExportRestoresAcrossShardCounts) {
  // The exported state is shard-agnostic: a 4-shard table's state restores
  // into a 2-shard table (the engine re-shards after a restart when the
  // surviving world is smaller).
  TileOrder order = default_order();
  ShardedTileTable<double> src(order, 4);
  auto two_deps = [](const IntVec&) { return 2; };
  for (Int i = 0; i < 12; ++i) {
    src.deliver({i, i + 1}, two_deps, {0, {static_cast<double>(i)}});
    if (i % 2 == 0)
      src.deliver({i, i + 1}, two_deps, {1, {static_cast<double>(-i)}});
  }
  ShardedTileTable<double> dst(order, 2);
  dst.restore_state(src.export_state());
  TableSnapshot before = src.snapshot(), after = dst.snapshot();
  EXPECT_EQ(after.pending_tiles, before.pending_tiles);
  EXPECT_EQ(after.ready_tiles, before.ready_tiles);
  EXPECT_EQ(after.buffered_edges, before.buffered_edges);
  // Finish the odd tiles and drain everything through the steal path.
  for (Int i = 1; i < 12; i += 2)
    dst.deliver({i, i + 1}, two_deps, {1, {static_cast<double>(-i)}});
  int popped = 0;
  while (dst.pop(0)) ++popped;
  EXPECT_EQ(popped, 12);
  EXPECT_TRUE(dst.idle());
}

TEST(TableStateRoundTrip, DuplicateEdgeStatSurvivesConcurrentDelivery) {
  // The duplicate guard must hold under concurrent duplicate delivery:
  // exactly one copy of each edge lands no matter the interleaving.
  TileOrder order = default_order();
  ShardedTileTable<double> table(order, 2);
  table.enable_replay_guard();  // duplicates only occur on guarded runs
  auto four_deps = [](const IntVec&) { return 4; };
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w)
    workers.emplace_back([&, w] {
      // Every thread delivers every edge of every tile: kThreads copies
      // of each, all but one of which must be dropped.
      (void)w;
      for (Int t = 0; t < 6; ++t)
        for (int e = 0; e < 4; ++e)
          table.deliver({t, t}, four_deps,
                        {e, {static_cast<double>(t * 4 + e)}});
    });
  for (auto& t : workers) t.join();
  int popped = 0;
  while (auto t = table.pop(0)) {
    EXPECT_EQ(t->edges.size(), 4u);
    ++popped;
  }
  EXPECT_EQ(popped, 6);
  const TableStats s = table.stats();
  EXPECT_EQ(s.delivered_edges, 6 * 4);
  EXPECT_EQ(s.duplicate_edges, 6 * 4 * (kThreads - 1));
  EXPECT_TRUE(table.idle());
}

}  // namespace
}  // namespace dpgen::runtime
