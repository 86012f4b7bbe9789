#pragma once
// Pending-tile table and eligible-tile priority queue (paper section V.B).
//
// The two main data structures of a generated program:
//   * the pending table holds every tile known to this node that still has
//     unsatisfied dependencies, together with the packed edge data received
//     for it so far — only edge data, never whole tiles, which is what
//     keeps live memory O(n^(d-1)) instead of Theta(n^d);
//   * the ready queue holds tiles whose dependencies are all satisfied,
//     ordered by the TileOrder priority (Fig. 5).
//
// Both are flat, allocation-light structures: the ready queue is a binary
// heap over a contiguous vector (std::push_heap/pop_heap with the TileOrder
// comparator — same pop order as the old std::map, without a node
// allocation per ready tile), and the pending table is an open-addressing
// linear-probe map keyed by a hash the caller computes once (the sharded
// wrapper reuses it for shard selection, so each delivery hashes its tile
// exactly once).  Tombstoned slots keep their vectors' heap storage, so a
// busy table stops allocating once it reaches steady state.
//
// Both are guarded by one mutex per shard; the paper notes contention on
// these structures has not been a bottleneck, and it is not here either.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/msgtrace.hpp"
#include "runtime/order.hpp"
#include "support/error.hpp"

namespace dpgen::runtime {

/// One packed tile edge: which edge (tile-dependency offset index) plus the
/// packed scalars in canonical pack order.  `msg` is the in-flight message
/// lifecycle record for a remote edge (msg.seq < 0 for local edges and
/// untraced runs); the driver completes it at dispatch time.  Checkpoint
/// serialization ignores it — losing stamps across a restart only costs
/// observability.
template <typename S>
struct EdgeData {
  int edge = -1;
  std::vector<S> payload;
  obs::MsgRecord msg{};
};

/// A tile ready for execution, with every incoming edge it accumulated.
template <typename S>
struct ReadyTile {
  IntVec tile;
  std::vector<EdgeData<S>> edges;
};

/// Instantaneous scheduler state, read under the shard locks.  Feeds the
/// driver's stall-abort diagnostics: a stalled rank reports what it was
/// waiting on (tiles still missing dependencies, edges buffered for them)
/// rather than just that it waited.
struct TableSnapshot {
  long long pending_tiles = 0;   ///< tiles with unsatisfied dependencies
  long long ready_tiles = 0;     ///< eligible tiles not yet popped
  long long buffered_edges = 0;  ///< edges held for pending tiles
};

/// Memory-usage counters exposed for the FIG4 / PEND reproductions.
struct TableStats {
  long long peak_pending_tiles = 0;
  long long peak_buffered_edges = 0;
  long long peak_buffered_scalars = 0;
  long long delivered_edges = 0;
  /// Most tiles simultaneously eligible (ready-queue depth high-water).
  long long peak_ready_tiles = 0;
  /// Redeliveries of an edge index a pending tile already buffered —
  /// dropped on arrival.  Nonzero under a duplicating transport fault or a
  /// checkpoint replay that overlaps live sends; always zero on a clean run.
  long long duplicate_edges = 0;
};

/// Serialized table contents (checkpoint/restart): every pending tile with
/// its remaining-dependency count and buffered edges, plus the ready queue.
template <typename S>
struct TableState {
  struct Pending {
    IntVec tile;
    int waiting = 0;  ///< dependencies still missing
    std::vector<EdgeData<S>> edges;
  };
  std::vector<Pending> pending;
  std::vector<ReadyTile<S>> ready;
};

namespace detail {
/// Second hash round applied before probing.  Shard selection consumes the
/// low bits of the tile hash (h % shards), so every tile landing in one
/// shard shares them; scrambling keeps those keys from clustering into
/// every shards-th probe slot.
inline std::size_t scramble_hash(std::size_t h) {
  std::uint64_t x = h;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}
}  // namespace detail

/// Rank-level ready-queue depth, shared by all shards of one table so the
/// exported gauge and the TableStats peak describe the rank's real queue
/// depth rather than a per-shard (or summed-peaks) approximation.
class ReadyDepthAgg {
 public:
  /// `gauge` (the run's `runtime.ready_queue_depth`; null = none) is fed
  /// the aggregate depth, so its max is a real per-rank peak.
  explicit ReadyDepthAgg(obs::Gauge* gauge = nullptr) : gauge_(gauge) {}

  void add(long long delta) {
    long long cur = depth_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) {
      long long peak = peak_.load(std::memory_order_relaxed);
      while (cur > peak &&
             !peak_.compare_exchange_weak(peak, cur,
                                          std::memory_order_relaxed)) {
      }
    }
    if (gauge_) gauge_->set(cur);
  }

  long long peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  obs::Gauge* gauge_;
  std::atomic<long long> depth_{0};
  std::atomic<long long> peak_{0};
};

template <typename S>
class TileTable {
 public:
  /// `depth` aggregates ready-queue depth across shards; when null the
  /// table tracks its own (single-shard use and tests).
  explicit TileTable(const TileOrder& order, ReadyDepthAgg* depth = nullptr)
      : order_(order), depth_(depth ? depth : &own_depth_) {
    slots_.resize(kInitialSlots);
  }

  // The heap comparator and depth aggregate point into the table; pinning
  // it keeps those references valid.
  TileTable(const TileTable&) = delete;
  TileTable& operator=(const TileTable&) = delete;

  /// Seeds a dependency-free (initial) tile straight into the ready queue.
  void seed_ready(IntVec tile) {
    std::lock_guard<std::mutex> lock(mu_);
    push_ready(std::move(tile), {});
  }

  /// Delivers one edge for `tile`.  On first sight of the tile,
  /// expected_deps is consulted for its total in-space dependency count.
  /// When the last dependency arrives the tile moves to the ready queue.
  template <typename ExpectedFn>
  void deliver(const IntVec& tile, ExpectedFn&& expected_deps,
               EdgeData<S> edge) {
    deliver_hashed(tile, IntVecHash{}(tile),
                   std::forward<ExpectedFn>(expected_deps), std::move(edge));
  }

  /// Fast path: the caller supplies IntVecHash{}(tile), computed once and
  /// shared with shard selection.
  template <typename ExpectedFn>
  void deliver_hashed(const IntVec& tile, std::size_t tile_hash,
                      ExpectedFn&& expected_deps, EdgeData<S> edge) {
    const std::size_t hash = detail::scramble_hash(tile_hash);
    std::lock_guard<std::mutex> lock(mu_);
    // A duplicate that arrives after its tile already went ready must not
    // resurrect the tile: the slot is tombstoned by then, so without this
    // check the duplicate would open a fresh pending entry — and for a
    // tile expecting a single edge, immediately re-ready (and re-execute)
    // it, double-crediting the completion count.  Tracking every satisfied
    // tile costs a set insert per tile, so it is only armed when
    // duplicates are possible at all (fault injection or replay); a clean
    // transport never re-delivers, and the clean path stays
    // allocation-free.
    if (replay_guard_ && satisfied_.count(tile) != 0) {
      ++stats_.duplicate_edges;
      return;
    }
    grow_if_needed();

    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    Slot* slot = nullptr;
    Slot* reuse = nullptr;  // first tombstone crossed while probing
    for (;;) {
      Slot& s = slots_[i];
      if (s.state == kEmpty) break;
      if (s.state == kTombstone) {
        if (!reuse) reuse = &s;
      } else if (s.hash == hash && s.tile == tile) {
        slot = &s;
        break;
      }
      i = (i + 1) & mask;
    }
    if (!slot) {
      const int expected = expected_deps(tile);
      DPGEN_ASSERT(expected >= 1);
      slot = reuse ? reuse : &slots_[i];
      if (slot->state == kTombstone) --tombstones_;
      slot->hash = hash;
      if (slot->tile.capacity() == 0 && !spares_.empty()) {
        // The slot's vectors were moved out when its last tile went ready;
        // refill from a recycled pair so the assign/reserve below reuse
        // heap storage instead of allocating.
        slot->tile = std::move(spares_.back().tile);
        slot->edges = std::move(spares_.back().edges);
        spares_.pop_back();
      }
      slot->tile.assign(tile.begin(), tile.end());
      slot->edges.clear();
      slot->edges.reserve(static_cast<std::size_t>(expected));
      slot->waiting = expected;
      slot->state = kOccupied;
      ++size_;
      stats_.peak_pending_tiles =
          std::max(stats_.peak_pending_tiles, size_);
    }

    // Duplicate-edge guard: a faulty (or replayed) wire can deliver the
    // same edge twice; counting it twice would fire waiting==0 early and
    // execute the tile with dependencies missing.
    for (const auto& have : slot->edges) {
      if (have.edge == edge.edge) {
        ++stats_.duplicate_edges;
        return;
      }
    }

    cur_edges_ += 1;
    cur_scalars_ += static_cast<long long>(edge.payload.size());
    stats_.peak_buffered_edges =
        std::max(stats_.peak_buffered_edges, cur_edges_);
    stats_.peak_buffered_scalars =
        std::max(stats_.peak_buffered_scalars, cur_scalars_);
    ++stats_.delivered_edges;

    slot->edges.push_back(std::move(edge));
    if (--slot->waiting == 0) {
      if (replay_guard_) satisfied_.insert(tile);
      push_ready(std::move(slot->tile), std::move(slot->edges));
      slot->tile.clear();
      slot->edges.clear();
      slot->state = kTombstone;
      ++tombstones_;
      --size_;
    }
  }

  /// Pops the highest-priority ready tile, or nullopt when none is ready.
  std::optional<ReadyTile<S>> pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.empty()) return std::nullopt;
    std::pop_heap(ready_.begin(), ready_.end(), heap_before());
    ReadyTile<S> out = std::move(ready_.back());
    ready_.pop_back();
    depth_->add(-1);
    for (const auto& e : out.edges) {
      cur_edges_ -= 1;
      cur_scalars_ -= static_cast<long long>(e.payload.size());
    }
    return out;
  }

  /// Returns a processed tile's containers (the tile coordinates and the
  /// edges vector — payloads are expected to have been moved out already)
  /// so future pending slots reuse their heap storage.
  void recycle(ReadyTile<S>&& done) {
    done.edges.clear();
    std::lock_guard<std::mutex> lock(mu_);
    spares_.push_back(std::move(done));
  }

  /// True when nothing is pending or ready (diagnostic only).
  bool idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_ == 0 && ready_.empty();
  }

  TableStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    TableStats out = stats_;
    out.peak_ready_tiles = depth_->peak();
    return out;
  }

  TableSnapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {size_, static_cast<long long>(ready_.size()), cur_edges_};
  }

  /// Deep copy of the table contents for checkpointing (pending tiles with
  /// their buffered edges, plus the ready queue in heap order).
  TableState<S> export_state() const {
    std::lock_guard<std::mutex> lock(mu_);
    TableState<S> out;
    for (const Slot& s : slots_) {
      if (s.state != kOccupied) continue;
      out.pending.push_back(
          typename TableState<S>::Pending{s.tile, s.waiting, s.edges});
    }
    out.ready = ready_;
    return out;
  }

  /// Arms the post-ready duplicate guard (the satisfied-tile set consulted
  /// in deliver()).  Call before any tile goes ready, on tables that may
  /// see re-delivered edges: fault-injected runs, checkpoint replay.  Off
  /// by default — the guard costs a set insert per completed tile, which
  /// would break the clean path's zero-per-edge-allocation invariant.
  void enable_replay_guard() {
    std::lock_guard<std::mutex> lock(mu_);
    replay_guard_ = true;
  }

  /// Reloads exported contents into this (expected empty) table.  Pending
  /// tiles are replayed through the delivery path — same accounting, same
  /// ready transition if the state says no dependencies remain.  A restore
  /// implies replayed edges may still arrive, so the guard is armed.
  void restore_state(const TableState<S>& state) {
    enable_replay_guard();
    for (const auto& p : state.pending) {
      const int expected =
          p.waiting + static_cast<int>(p.edges.size());
      for (const auto& e : p.edges)
        deliver(p.tile, [&](const IntVec&) { return expected; }, e);
    }
    for (const auto& r : state.ready) restore_ready(r);
  }

  /// Re-enqueues one checkpointed ready tile, restoring the buffered-edge
  /// accounting that pop() will unwind.
  void restore_ready(const ReadyTile<S>& r) {
    std::lock_guard<std::mutex> lock(mu_);
    replay_guard_ = true;
    for (const auto& e : r.edges) {
      cur_edges_ += 1;
      cur_scalars_ += static_cast<long long>(e.payload.size());
    }
    stats_.peak_buffered_edges =
        std::max(stats_.peak_buffered_edges, cur_edges_);
    stats_.peak_buffered_scalars =
        std::max(stats_.peak_buffered_scalars, cur_scalars_);
    IntVec tile = r.tile;
    std::vector<EdgeData<S>> edges = r.edges;
    satisfied_.insert(tile);  // any further delivery for it is a duplicate
    push_ready(std::move(tile), std::move(edges));
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;  // power of two
  static constexpr int kEmpty = 0;
  static constexpr int kTombstone = 1;
  static constexpr int kOccupied = 2;

  struct Slot {
    std::size_t hash = 0;
    int state = kEmpty;
    int waiting = 0;
    IntVec tile;
    std::vector<EdgeData<S>> edges;
  };

  /// Max-heap comparator: the heap's top is the tile the TileOrder says
  /// runs first, so `before(a, b)` holds when a is *later* than b.
  auto heap_before() const {
    return [this](const ReadyTile<S>& a, const ReadyTile<S>& b) {
      return order_.earlier(b.tile, a.tile);
    };
  }

  /// Called under mu_.
  void push_ready(IntVec&& tile, std::vector<EdgeData<S>>&& edges) {
    ready_.push_back(ReadyTile<S>{std::move(tile), std::move(edges)});
    std::push_heap(ready_.begin(), ready_.end(), heap_before());
    stats_.peak_ready_tiles =
        std::max(stats_.peak_ready_tiles,
                 static_cast<long long>(ready_.size()));
    depth_->add(1);
  }

  /// Called under mu_.  Keeps the live+tombstone load factor under 3/4 so
  /// probe chains stay short; rehashing drops tombstones.
  void grow_if_needed() {
    if ((size_ + tombstones_ + 1) * 4 <= slots_.size() * 3) return;
    std::size_t cap = slots_.size();
    while (static_cast<std::size_t>(size_ + 1) * 4 > cap * 2) cap *= 2;
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(cap);
    tombstones_ = 0;
    const std::size_t mask = cap - 1;
    for (Slot& s : old) {
      if (s.state != kOccupied) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].state != kEmpty) i = (i + 1) & mask;
      slots_[i] = std::move(s);
    }
  }

  TileOrder order_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  long long size_ = 0;        // occupied slots
  std::size_t tombstones_ = 0;
  std::vector<ReadyTile<S>> ready_;  // binary heap ordered by heap_before()
  std::vector<ReadyTile<S>> spares_;  // recycled (tile, edges) containers
  /// Tiles whose dependency set has been fully delivered (they moved to the
  /// ready queue).  Late duplicates of their edges are dropped on sight —
  /// the tombstone left in slots_ forgets the tile's identity, so this set
  /// is what makes the duplicate guard hold across the ready transition.
  /// Populated only when replay_guard_ is armed (see enable_replay_guard).
  std::unordered_set<IntVec, IntVecHash> satisfied_;
  bool replay_guard_ = false;
  ReadyDepthAgg own_depth_;
  ReadyDepthAgg* depth_;
  TableStats stats_;
  long long cur_edges_ = 0;
  long long cur_scalars_ = 0;
};

/// Sharded variant (paper section VII.C): "separate shared data structures
/// for groups of closely connected cores — as long as its own queue has
/// work, a core would not need to compete for locks outside its group."
/// Tiles are assigned to shards by hash; workers pop from their preferred
/// shard first and steal from the others when it is empty.  Global
/// priority becomes approximate across shards, which is the accepted
/// trade-off.
template <typename S>
class ShardedTileTable {
 public:
  /// `ready_depth` is the run's ready-queue gauge (null = none).
  ShardedTileTable(const TileOrder& order, int shards,
                   obs::Gauge* ready_depth = nullptr)
      : depth_(ready_depth) {
    DPGEN_CHECK(shards >= 1, "need at least one queue shard");
    for (int i = 0; i < shards; ++i)
      shards_.push_back(std::make_unique<TileTable<S>>(order, &depth_));
  }

  int shards() const { return static_cast<int>(shards_.size()); }

  /// Arms every shard's post-ready duplicate guard (see
  /// TileTable::enable_replay_guard).
  void enable_replay_guard() {
    for (auto& s : shards_) s->enable_replay_guard();
  }

  void seed_ready(IntVec tile) {
    shard_for(IntVecHash{}(tile)).seed_ready(std::move(tile));
  }

  template <typename ExpectedFn>
  void deliver(const IntVec& tile, ExpectedFn&& expected_deps,
               EdgeData<S> edge) {
    const std::size_t h = IntVecHash{}(tile);
    shard_for(h).deliver_hashed(tile, h,
                                std::forward<ExpectedFn>(expected_deps),
                                std::move(edge));
  }

  /// Pops from the preferred shard, stealing round-robin when empty.
  std::optional<ReadyTile<S>> pop(int preferred) {
    const int n = shards();
    for (int i = 0; i < n; ++i) {
      auto r = shards_[static_cast<std::size_t>((preferred + i) % n)]->pop();
      if (r) return r;
    }
    return std::nullopt;
  }

  bool idle() const {
    for (const auto& s : shards_)
      if (!s->idle()) return false;
    return true;
  }

  /// Hands a processed tile's containers back, rotating across shards so
  /// every shard's freelist gets a supply regardless of which workers
  /// finish tiles.
  void recycle(ReadyTile<S>&& done) {
    const std::size_t i =
        recycle_next_.fetch_add(1, std::memory_order_relaxed);
    shards_[i % shards_.size()]->recycle(std::move(done));
  }

  /// Aggregated statistics.  Memory peaks are summed over shards (they
  /// bound the true simultaneous peak from above); the ready peak is the
  /// shared depth aggregate's high-water, i.e. the true rank-level peak.
  TableStats stats() const {
    TableStats total;
    for (const auto& s : shards_) {
      TableStats t = s->stats();
      total.peak_pending_tiles += t.peak_pending_tiles;
      total.peak_buffered_edges += t.peak_buffered_edges;
      total.peak_buffered_scalars += t.peak_buffered_scalars;
      total.delivered_edges += t.delivered_edges;
      total.duplicate_edges += t.duplicate_edges;
    }
    total.peak_ready_tiles = depth_.peak();
    return total;
  }

  /// Shards concatenated into one flat state (the checkpoint does not
  /// record sharding; restore re-routes by hash, so a state exported from
  /// N shards restores cleanly into M).
  TableState<S> export_state() const {
    TableState<S> out;
    for (const auto& s : shards_) {
      TableState<S> t = s->export_state();
      for (auto& p : t.pending) out.pending.push_back(std::move(p));
      for (auto& r : t.ready) out.ready.push_back(std::move(r));
    }
    return out;
  }

  void restore_state(const TableState<S>& state) {
    enable_replay_guard();
    for (const auto& p : state.pending) {
      const int expected =
          p.waiting + static_cast<int>(p.edges.size());
      for (const auto& e : p.edges)
        deliver(p.tile, [&](const IntVec&) { return expected; }, e);
    }
    for (const auto& r : state.ready)
      shard_for(IntVecHash{}(r.tile)).restore_ready(r);
  }

  /// Summed over shards; each shard is internally consistent but the
  /// shards are read one after another, which is fine for diagnostics.
  TableSnapshot snapshot() const {
    TableSnapshot total;
    for (const auto& s : shards_) {
      TableSnapshot t = s->snapshot();
      total.pending_tiles += t.pending_tiles;
      total.ready_tiles += t.ready_tiles;
      total.buffered_edges += t.buffered_edges;
    }
    return total;
  }

 private:
  TileTable<S>& shard_for(std::size_t hash) {
    return *shards_[hash % shards_.size()];
  }

  ReadyDepthAgg depth_;
  std::atomic<std::size_t> recycle_next_{0};
  std::vector<std::unique_ptr<TileTable<S>>> shards_;
};

}  // namespace dpgen::runtime
