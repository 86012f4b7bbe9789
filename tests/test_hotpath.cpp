// Hot-path allocation tests: pooled edge buffers, wire-format round trips
// through the pool, run-coalesced pack/unpack equivalence against the
// per-cell reference on every packaged problem, and the steady-state
// allocation counter (the driver loop must not allocate per edge).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "engine/interpret.hpp"
#include "minimpi/world.hpp"
#include "problems/problems.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/driver.hpp"
#include "tiling/balance.hpp"
#include "tiling/model.hpp"

// ---- global allocation counter -------------------------------------------
// Counts every path into the global heap.  Only deltas are meaningful (the
// test harness allocates too), and tests must take deltas around regions
// that do not run concurrently with other tests (ctest runs cases in
// separate processes, so this holds).

namespace {
std::atomic<long long> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dpgen {
namespace {

// ---- pooled wire round trip ----------------------------------------------

TEST(Hotpath, PooledEncodeDecodeRoundTrip) {
  runtime::detail::BufferPool<double> pool;
  std::vector<double> payload = pool.acquire();
  EXPECT_EQ(pool.misses(), 1);
  payload = {1.5, -2.25, 0.0, 42.0};

  // Zero-copy encode: reserve the header, write scalars straight into the
  // wire buffer, then stamp the header.
  std::vector<std::uint8_t> wire;
  double* out = runtime::detail::begin_edge_wire<double>(wire, 3, 8);
  std::memcpy(out, payload.data(), payload.size() * sizeof(double));
  runtime::detail::finish_edge_wire<double>(
      wire, 2, {4, -1, 7}, static_cast<Int>(payload.size()));

  // Byte-identical to the one-shot encoder.
  const std::vector<std::uint8_t> reference =
      runtime::detail::encode_edge<double>(2, {4, -1, 7}, payload);
  EXPECT_EQ(wire, reference);

  // Decode into a pooled vector; the released payload is reused.
  pool.release(std::move(payload));
  std::vector<double> decoded = pool.acquire();
  EXPECT_EQ(pool.hits(), 1);  // got the released buffer back
  int edge = -1;
  IntVec consumer;
  runtime::detail::decode_edge<double>(wire, 3, 8, &edge, &consumer,
                                       &decoded);
  EXPECT_EQ(edge, 2);
  EXPECT_EQ(consumer, (IntVec{4, -1, 7}));
  EXPECT_EQ(decoded, (std::vector<double>{1.5, -2.25, 0.0, 42.0}));
}

TEST(Hotpath, BufferPoolSteadyStateHitRate) {
  // The driver's per-tile cycle: acquire one buffer per outgoing edge,
  // release one per incoming edge.  After the first cycle seeds the
  // freelist, every acquire must hit.
  runtime::detail::BufferPool<float> pool;
  constexpr int kCycles = 1000;
  constexpr int kEdges = 2;
  for (int c = 0; c < kCycles; ++c) {
    std::vector<float> bufs[kEdges];
    for (auto& b : bufs) {
      b = pool.acquire();
      b.resize(16);
    }
    for (auto& b : bufs) pool.release(std::move(b));
  }
  EXPECT_EQ(pool.misses(), kEdges);  // only the first cycle allocates
  EXPECT_EQ(pool.hits(), static_cast<long long>(kCycles * kEdges - kEdges));
  const double hit_rate =
      static_cast<double>(pool.hits()) /
      static_cast<double>(pool.hits() + pool.misses());
  EXPECT_GT(hit_rate, 0.99);
}

// ---- run coalescing vs per-cell reference --------------------------------

void expect_coalesced_equivalence(const tiling::TilingModel& model,
                                  const IntVec& params) {
  // A recognisable pattern so payload mismatches show as value diffs.
  std::vector<double> buffer(static_cast<std::size_t>(model.buffer_size()));
  for (std::size_t i = 0; i < buffer.size(); ++i)
    buffer[i] = 1.0 + 0.5 * static_cast<double>(i);

  std::vector<IntVec> tiles;
  model.for_each_tile(params, [&](const IntVec& t) { tiles.push_back(t); });
  ASSERT_FALSE(tiles.empty());
  // Cap the per-problem work: an even spread over the tile space still
  // covers boundary tiles (partial pack slabs) and interior ones.
  const std::size_t stride = std::max<std::size_t>(1, tiles.size() / 40);

  for (std::size_t ti = 0; ti < tiles.size(); ti += stride) {
    const IntVec& tile = tiles[ti];
    for (int e = 0; e < model.num_edges(); ++e) {
      // Per-cell reference pack.
      std::vector<double> ref;
      model.for_each_pack_cell(params, tile, e, [&](const IntVec& j) {
        ref.push_back(buffer[static_cast<std::size_t>(model.local_index(j))]);
      });
      // Coalesced pack must be byte-identical.
      std::vector<double> out;
      const Int n = engine::detail::pack_interpreted(model, params, e, tile,
                                                     buffer.data(), out);
      ASSERT_EQ(static_cast<std::size_t>(n), ref.size())
          << "edge " << e << " tile " << vec_to_string(tile);
      // An empty slab leaves both data() pointers null, which memcmp
      // must not be given even for a zero length.
      if (!ref.empty()) {
        ASSERT_EQ(0, std::memcmp(out.data(), ref.data(),
                                 ref.size() * sizeof(double)))
            << "edge " << e << " tile " << vec_to_string(tile);
      }

      // Per-cell reference unpack (scatter at local + per-edge shift)...
      const Int shift = model.edge_unpack_shift(e);
      std::vector<double> ref_buf(buffer.size(), 0.0);
      std::size_t pos = 0;
      model.for_each_pack_cell(params, tile, e, [&](const IntVec& j) {
        ref_buf[static_cast<std::size_t>(model.local_index(j) + shift)] =
            ref[pos++];
      });
      // ...must equal the coalesced unpack over the whole buffer.
      std::vector<double> got(buffer.size(), 0.0);
      engine::detail::unpack_interpreted(model, params, e, tile, out.data(),
                                         n, got.data());
      ASSERT_EQ(0, std::memcmp(got.data(), ref_buf.data(),
                               got.size() * sizeof(double)))
          << "edge " << e << " tile " << vec_to_string(tile);
    }
  }
}

void expect_coalesced_equivalence(problems::Problem p, const IntVec& params) {
  expect_coalesced_equivalence(tiling::TilingModel(std::move(p.spec)),
                               params);
}

/// Index of the edge with tile offset `offset`; fails the test when absent.
int edge_index(const tiling::TilingModel& model, const IntVec& offset) {
  for (int e = 0; e < model.num_edges(); ++e)
    if (model.edges()[static_cast<std::size_t>(e)].offset == offset) return e;
  ADD_FAILURE() << "no edge with offset " << vec_to_string(offset);
  return 0;
}

TEST(HotpathCoalescing, Bandit2) {
  tiling::TilingModel model(problems::bandit2(4).spec);
  // The simplex couples each arm's innermost bounds to the next-outer
  // count, so at least one edge keeps the per-run range evaluation.
  bool any_unhoisted = false;
  for (int e = 0; e < model.num_edges(); ++e)
    any_unhoisted = any_unhoisted || !model.edge_pack_hoisted(e);
  EXPECT_TRUE(any_unhoisted);
  expect_coalesced_equivalence(model, {6});
}
TEST(HotpathCoalescing, Bandit3) {
  expect_coalesced_equivalence(problems::bandit3(2), {3});
}
TEST(HotpathCoalescing, Bandit2Delay) {
  expect_coalesced_equivalence(problems::bandit2_delay(2), {4});
}
TEST(HotpathCoalescing, Msa) {
  const std::vector<std::string> seqs = {"GATTACA", "GCATGCU"};
  expect_coalesced_equivalence(problems::msa(seqs, 4),
                               problems::sequence_params(seqs));
}
TEST(HotpathCoalescing, Lcs) {
  const std::vector<std::string> seqs = {"ACGGTAG", "CGTTCGG", "ACTGAG"};
  expect_coalesced_equivalence(problems::lcs(seqs, 4),
                               problems::sequence_params(seqs));
  // Two strings: the column edge packs one single-cell run per row, all
  // from one hoisted innermost range.
  const std::vector<std::string> two = {"ACGGTAGCA", "CGTTCGGAT"};
  tiling::TilingModel model(problems::lcs(two, 4).spec);
  EXPECT_TRUE(model.edge_pack_hoisted(edge_index(model, {0, 1})));
  expect_coalesced_equivalence(model, problems::sequence_params(two));
}
TEST(HotpathCoalescing, EditDistance) {
  tiling::TilingModel model(
      problems::edit_distance("kitten", "sitting", 4).spec);
  EXPECT_TRUE(model.edge_pack_hoisted(edge_index(model, {0, 1})));
  expect_coalesced_equivalence(
      model, problems::sequence_params({"kitten", "sitting"}));
}
TEST(HotpathCoalescing, SmithWaterman) {
  expect_coalesced_equivalence(
      problems::smith_waterman("TACGGGCC", "TAGCCCTA", 2.0, -1.0, -1.0, 4),
      problems::sequence_params({"TACGGGCC", "TAGCCCTA"}));
}
TEST(HotpathCoalescing, AlignAffine) {
  expect_coalesced_equivalence(
      problems::align_affine("GATTACA", "GCATGCU", 1.0, 3.0, 1.0, 4),
      problems::sequence_params({"GATTACA", "GCATGCU"}));
}
TEST(HotpathCoalescing, CoinChange) {
  expect_coalesced_equivalence(problems::coin_change({1, 3, 4}, 4), {25});
}
TEST(HotpathCoalescing, SeamCarving) {
  expect_coalesced_equivalence(problems::seam_carving(4), {12, 16});
}

// ---- steady-state allocation count ---------------------------------------

/// Executes, packs and unpacks every tile of `model` once; returns the
/// heap allocations made.
long long interpreter_pass(const tiling::TilingModel& model,
                           const IntVec& params,
                           const std::vector<IntVec>& tiles,
                           const engine::CenterFn& kernel,
                           std::vector<unsigned char>* decisions,
                           std::vector<double>& buffer,
                           std::vector<double>& payload) {
  const long long a0 = g_heap_allocs.load();
  for (const IntVec& tile : tiles) {
    if (decisions) decisions->clear();
    engine::detail::execute_tile_interpreted(model, params, tile, kernel,
                                             buffer.data(), decisions);
    for (int e = 0; e < model.num_edges(); ++e) {
      const Int n = engine::detail::pack_interpreted(
          model, params, e, tile, buffer.data(), payload.data());
      engine::detail::unpack_interpreted(model, params, e, tile,
                                         payload.data(), n, buffer.data());
    }
  }
  return g_heap_allocs.load() - a0;
}

TEST(Hotpath, OwnerTableLookupAllocatesNothing) {
  // owner() runs once per outgoing edge in every executor: neither the
  // dense box lookup nor the sparse binary search allocates.
  const tiling::TilingModel model(problems::bandit2(2).spec);
  const IntVec params{14};
  const tiling::LoadBalancer dense(model, params, 3);
  std::vector<IntVec> tiles;
  model.for_each_tile(params, [&](const IntVec& t) { tiles.push_back(t); });
  runtime::OwnerTable sparse({0});
  for (Int x : {Int{0}, Int{3}, Int{1 << 20}}) sparse.add_cell(&x, 1, 1);
  sparse.cut(2);
  const std::vector<IntVec> sparse_tiles = {{0}, {3}, {1 << 20}};
  long long sum = 0;
  const long long a0 = g_heap_allocs.load();
  for (int pass = 0; pass < 4; ++pass) {
    for (const IntVec& t : tiles) sum += dense.owner(t);
    for (const IntVec& t : sparse_tiles) sum += sparse.owner(t);
  }
  EXPECT_EQ(g_heap_allocs.load() - a0, 0);
  EXPECT_GT(sum, 0);
}

TEST(Hotpath, InterpreterSteadyStateAllocationFree) {
  // The type-erased run entry, the row walk and the pack runs all work on
  // caller or per-thread storage: after a warm-up pass, executing,
  // packing and unpacking every tile again allocates nothing.
  const std::vector<std::string> seqs = {"ACGGTAGCAT", "CGTTCGGATA"};
  problems::Problem lcs2 = problems::lcs(seqs, 4);
  problems::Problem bandit = problems::bandit2(3);
  const std::vector<std::pair<problems::Problem*, IntVec>> cases = {
      {&lcs2, problems::sequence_params(seqs)}, {&bandit, {5}}};
  for (const auto& [problem, params] : cases) {
    SCOPED_TRACE(problem->spec.problem_name());
    tiling::TilingModel model(problem->spec);
    std::vector<IntVec> tiles;
    model.for_each_tile(params, [&](const IntVec& t) { tiles.push_back(t); });
    std::vector<double> buffer(static_cast<std::size_t>(model.buffer_size()));
    Int capacity = 0;
    for (const auto& e : model.edges())
      capacity = std::max(capacity, e.capacity);
    std::vector<double> payload(static_cast<std::size_t>(capacity));
    // Room for the largest tile's decision bytes.
    std::size_t tile_cells = 1;
    for (Int w : model.problem().widths())
      tile_cells *= static_cast<std::size_t>(w);
    std::vector<unsigned char> decisions;
    decisions.reserve(tile_cells);
    for (bool with_log : {false, true}) {
      SCOPED_TRACE(with_log ? "reserved decision vector" : "no decisions");
      std::vector<unsigned char>* log = with_log ? &decisions : nullptr;
      (void)interpreter_pass(model, params, tiles, problem->kernel, log,
                             buffer, payload);
      EXPECT_EQ(interpreter_pass(model, params, tiles, problem->kernel, log,
                                 buffer, payload),
                0);
    }
  }
}

/// Minimal 2D grid hooks: an n x n tile grid where tile t depends on
/// (t0+1, t1) and (t0, t1+1), each edge carrying 4 scalars.  This drives
/// run_node's full loop (pop, unpack, execute, pack, deliver) without the
/// engine's interpreter, so the count isolates the driver hot path.
class GridHooks final : public runtime::ProblemHooks<double> {
 public:
  explicit GridHooks(Int n) : n_(n) {}

  int dim() const override { return 2; }
  Int buffer_size() const override { return 16; }
  int num_edges() const override { return 2; }
  const Int* edge_offset(int e) const override { return offsets_[e]; }
  Int edge_capacity(int) const override { return 4; }
  bool tile_exists(const Int* t) const override {
    return t[0] >= 0 && t[0] < n_ && t[1] >= 0 && t[1] < n_;
  }
  int dep_count(const Int* t) const override {
    return (t[0] + 1 < n_ ? 1 : 0) + (t[1] + 1 < n_ ? 1 : 0);
  }
  void initial_tiles(runtime::TileSink& out) const override {
    const Int corner[2] = {n_ - 1, n_ - 1};
    out.add_tile(corner);
  }
  void execute_tile(const Int*, double* buffer) override {
    buffer[0] += 1.0;
  }
  Int pack(int, const Int*, const double* buffer,
           double* out) const override {
    std::memcpy(out, buffer, 4 * sizeof(double));
    return 4;
  }
  void unpack(int, const Int*, const double* data, Int count,
              double* buffer) const override {
    for (Int i = 0; i < count; ++i) buffer[4 + i] = data[i];
  }

 private:
  Int n_;
  Int offsets_[2][2] = {{1, 0}, {0, 1}};
};

struct AllocRun {
  long long allocs = 0;
  long long edges = 0;
  double pool_hit_rate = 0.0;
};

AllocRun run_grid_and_count(Int n) {
  GridHooks hooks(n);
  runtime::OwnerTable owners;
  owners.add_cell(nullptr, n * n, n * n);
  owners.cut(1);
  runtime::RunOptions opt;
  opt.order =
      runtime::TileOrder({0, 1}, {1, 1}, runtime::PriorityPolicy::kColumnMajor);
  minimpi::World world(1);
  AllocRun out;
  const long long a0 = g_heap_allocs.load();
  runtime::RunStats stats =
      runtime::run_node<double>(hooks, owners, world.comm(0), opt);
  out.allocs = g_heap_allocs.load() - a0;
  out.edges = stats.local_edges + stats.remote_edges;
  const long long pool_total = stats.pool_hits + stats.edge_allocs;
  out.pool_hit_rate =
      pool_total > 0
          ? static_cast<double>(stats.pool_hits) / pool_total
          : 0.0;
  return out;
}

TEST(Hotpath, SteadyStateHeapAllocationFree) {
  // Warm thread-local scratch so first-touch allocations do not count.
  (void)run_grid_and_count(8);

  const AllocRun small = run_grid_and_count(24);
  const AllocRun large = run_grid_and_count(48);
  ASSERT_GT(large.edges, small.edges);

  // Pools reach steady state within a run: nearly every payload acquire
  // must be served from the freelist.
  EXPECT_GT(small.pool_hit_rate, 0.95);
  EXPECT_GT(large.pool_hit_rate, 0.95);

  std::printf("[ alloc  ] 24x24: %lld allocs / %lld edges;"
              " 48x48: %lld allocs / %lld edges\n",
              small.allocs, small.edges, large.allocs, large.edges);

#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
  // Zero per-edge steady-state heap allocations: what a run allocates is
  // startup and frontier state (table slots, pool seeds — O(n) for an
  // n x n grid), not per-edge work.  Quadrupling the edge count must add
  // far less than one allocation per additional edge.
  const long long extra_allocs = large.allocs - small.allocs;
  const long long extra_edges = large.edges - small.edges;
  EXPECT_LT(extra_allocs, extra_edges / 10)
      << "per-edge allocations crept back into the driver hot path: "
      << extra_allocs << " allocs for " << extra_edges << " extra edges";
  // And the absolute count stays far below one per edge.
  EXPECT_LT(large.allocs, large.edges / 4)
      << large.allocs << " allocs for " << large.edges << " edges";
#endif
}

}  // namespace
}  // namespace dpgen
