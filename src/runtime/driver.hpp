#pragma once
// The hybrid node driver (paper section V.A).
//
// run_node() is the main body of every generated program and of engine
// runs: after load balancing and initial-tile generation, each of the
// node's worker threads executes the paper's while-loop —
//   1. get the next available tile,
//   2. unpack its stored edge data into the worker's tile buffer (+ghost
//      cells),
//   3. execute the tile,
//   4. pack each valid outgoing edge and either update a neighbouring
//      local tile or send the edge to the owning rank,
//   5. add any now-ready tiles to the priority queue,
//   6. poll for incoming edges when the comm lock is available.
//
// Only tiles in execution hold full buffers; everything else is packed
// edges.  The problem-specific pieces are supplied through ProblemHooks
// (runtime/program.hpp): the interpreted engine implements them by walking
// the TilingModel, and generated programs with emitted loop nests.  Tile
// ownership comes from the attempt's OwnerTable and results go to its
// ResultSink (runtime/run_state.hpp), which the driver consults directly.
//
// The steady-state loop is allocation-free: payload vectors cycle through
// a per-worker BufferPool (unpack releases feed the very next pack
// acquires), remote edges are packed straight into a pooled wire buffer
// after a reserved header and moved into the mailbox, and received wire
// buffers are recycled for the next send.  Pool misses are counted as
// `runtime.edge_alloc` and hits as `runtime.pool_hit`, so the claim shows
// up in the metrics rather than relying on code reading.
//
// run_node<double> is compiled once, into dpgen_runtime (driver.cpp):
// generated programs and the engine link that copy instead of
// instantiating the driver themselves; other scalar types still
// instantiate in the caller's translation unit.  Worker threads are
// std::threads by default; when dpgen_runtime is built with OpenMP (it
// defines DPGEN_RUNTIME_USE_OPENMP whenever CMake finds OpenMP), the
// workers run inside an OpenMP parallel region instead, making every run a
// true hybrid OpenMP + message-passing execution.
//
// Observability: every thread of the rank binds to the run's obs::Session
// (RunOptions::session), every phase of the loop records an
// obs::ScopedSpan (tile-execute spans carry the tile coordinates) and the
// counters feed the Session's MetricsRegistry alongside the returned
// RunStats.  At the end of the run the ranks' spans and message records
// are merged to rank 0 through the comm layer (obs/gather.hpp), ready for
// export.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "minimpi/world.hpp"
#include "support/str.hpp"
#include "obs/gather.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/profile.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/run_state.hpp"
#include "runtime/tile_table.hpp"

#if defined(_OPENMP) && defined(DPGEN_RUNTIME_USE_OPENMP)
#include <omp.h>
#endif

namespace dpgen::runtime {

struct RunOptions {
  int threads = 1;
  TileOrder order;
  /// Ready-queue shards (paper VII.C); workers prefer shard
  /// (worker_id mod shards) and steal from the rest.
  int queue_shards = 1;
  /// Refill the tile buffer with NaN before every tile so that reads of
  /// cells neither unpacked nor computed for that tile surface as NaNs
  /// (floating-point S only).  Off, the buffer is zeroed once per worker
  /// and keeps the previous tile's values between tiles.
  bool poison_buffers = false;
  /// Abort with an error after this long with no progress (0 = never);
  /// protects tests against scheduling deadlocks.  A structured
  /// stall_warning fires at half this budget so live monitors see trouble
  /// before the run dies.
  double stall_timeout_seconds = 120.0;
  /// Live-telemetry sink (not owned; null = monitoring off).  The steady
  /// state pays one relaxed load per tile; snapshots are only taken when
  /// the monitor's sampler asks for one.
  obs::Monitor* monitor = nullptr;
  /// Fault recovery (only honoured when run_node gets a checkpoint
  /// store): a rank starved of progress for this long declares a
  /// transport failure — messages it depends on are presumed lost — so
  /// every rank unwinds and the launcher restarts from the checkpoint.
  /// 0 = never; must be well under stall_timeout_seconds when set.
  double recover_stall_seconds = 0.0;
  /// Arms the tile table's post-ready duplicate guard.  Set by the launcher
  /// for any run that can see re-delivered edges (a fault plan, or a
  /// fault-tolerant run whose restart replays sends); off by default so
  /// the clean path stays free of the guard's per-tile set insert.
  bool replay_guard = false;
  /// The run's observability state (not owned; null = none): rank and
  /// worker threads bind to its rings, counters go to its registry, and
  /// when it is profiling, workers register with the Profiler and tile
  /// executions feed the adaptive-stride counter windows.
  obs::Session* session = nullptr;
};

struct RunStats {
  long long tiles_executed = 0;
  long long initial_tiles = 0;
  long long local_edges = 0;     // delivered without messaging
  long long remote_edges = 0;    // sent through the comm layer
  long long polls = 0;
  long long idle_spins = 0;
  /// Buffer-pool misses (each one a real heap allocation on the edge
  /// path) and hits; in steady state every acquire should be a hit.
  long long edge_allocs = 0;
  long long pool_hits = 0;
  double init_scan_seconds = 0.0;
  double total_seconds = 0.0;
  /// Wall time this rank's workers spent with no ready tile (includes the
  /// exponential-backoff sleeps, which dominate long idle stretches).
  double idle_seconds = 0.0;
  /// Wall time spent retrying sends against full destination mailboxes.
  double blocked_send_seconds = 0.0;
  /// stall_warning events raised (progress resumed after each, or the run
  /// would have aborted at the full timeout instead).
  long long stall_warnings = 0;
  TableStats table;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t blocked_sends = 0;
};

namespace detail {

// Wire format of one edge message: [edge, count, consumer tile coords,
// payload scalars].  The header length is a multiple of sizeof(Int), so
// the payload region is suitably aligned for the scalar type.

inline std::size_t edge_wire_header(int dim) {
  return sizeof(Int) * (2 + static_cast<std::size_t>(dim));
}

/// Sizes `buf` for a payload of up to `capacity` scalars after the header
/// and returns the payload write pointer; pack fills it in place and
/// finish_edge_wire() then trims and stamps the header — no intermediate
/// scratch-to-wire copy.
template <typename S>
S* begin_edge_wire(std::vector<std::uint8_t>& buf, int dim, Int capacity) {
  const std::size_t head = edge_wire_header(dim);
  buf.resize(head + static_cast<std::size_t>(capacity) * sizeof(S));
  return reinterpret_cast<S*>(buf.data() + head);
}

template <typename S>
void finish_edge_wire(std::vector<std::uint8_t>& buf, int edge,
                      const IntVec& consumer, Int count) {
  const std::size_t head =
      edge_wire_header(static_cast<int>(consumer.size()));
  buf.resize(head + static_cast<std::size_t>(count) * sizeof(S));
  Int header[2] = {static_cast<Int>(edge), count};
  std::memcpy(buf.data(), header, sizeof(header));
  std::memcpy(buf.data() + sizeof(header), consumer.data(),
              consumer.size() * sizeof(Int));
}

template <typename S>
std::vector<std::uint8_t> encode_edge(int edge, const IntVec& consumer,
                                      const std::vector<S>& payload) {
  std::vector<std::uint8_t> buf;
  S* out = begin_edge_wire<S>(buf, static_cast<int>(consumer.size()),
                              static_cast<Int>(payload.size()));
  if (!payload.empty())
    std::memcpy(out, payload.data(), payload.size() * sizeof(S));
  finish_edge_wire<S>(buf, edge, consumer,
                      static_cast<Int>(payload.size()));
  return buf;
}

/// Decodes one edge message, validating every header field against the
/// receiver's own geometry before trusting it: `num_edges` bounds the edge
/// index and the payload count must be non-negative and match the buffer
/// length exactly (checked without overflowing).
template <typename S>
void decode_edge(const std::vector<std::uint8_t>& buf, int dim,
                 int num_edges, int* edge, IntVec* consumer,
                 std::vector<S>* payload) {
  Int header[2];
  DPGEN_CHECK(buf.size() >= sizeof(header), "malformed edge message");
  std::memcpy(header, buf.data(), sizeof(header));
  DPGEN_CHECK(header[0] >= 0 && header[0] < num_edges,
              cat("edge message: edge index ", header[0], " outside [0, ",
                  num_edges, ")"));
  consumer->resize(static_cast<std::size_t>(dim));
  const std::size_t head = edge_wire_header(dim);
  DPGEN_CHECK(buf.size() >= head, "malformed edge message");
  DPGEN_CHECK(header[1] >= 0 &&
                  static_cast<std::uint64_t>(header[1]) <=
                      (buf.size() - head) / sizeof(S),
              cat("edge message: bad payload count ", header[1]));
  const auto count = static_cast<std::size_t>(header[1]);
  DPGEN_CHECK(buf.size() == head + count * sizeof(S),
              "edge message length mismatch");
  *edge = static_cast<int>(header[0]);
  std::memcpy(consumer->data(), buf.data() + sizeof(header),
              consumer->size() * sizeof(Int));
  const S* src = reinterpret_cast<const S*>(buf.data() + head);
  payload->assign(src, src + count);
}

/// Bounded exponential backoff for the driver's wait loops.  The first
/// pauses only yield (a waiting thread reacts within a scheduling
/// quantum); after that it sleeps with doubling duration up to a small
/// cap, so an idle worker stops burning its core while a message or a
/// ready tile is at most ~an eighth of a millisecond away.
class Backoff {
 public:
  void pause() {
    if (spins_ < kSpinLimit) {
      ++spins_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    if (sleep_us_ < kMaxSleepUs) sleep_us_ *= 2;
  }

  void reset() {
    spins_ = 0;
    sleep_us_ = 1;
  }

 private:
  static constexpr int kSpinLimit = 64;
  static constexpr long kMaxSleepUs = 128;
  int spins_ = 0;
  long sleep_us_ = 1;
};

/// Per-run cached handles into the metrics registry (name lookups are
/// mutex-guarded; the hot loop must only touch atomics).
struct DriverMetrics {
  obs::Counter& tiles;
  obs::Counter& local_edges;
  obs::Counter& remote_edges;
  obs::Counter& polls;
  obs::Counter& idle_ns;
  obs::Counter& blocked_send_ns;
  /// Buffer-pool misses (real allocations) and hits on the edge path.
  obs::Counter& edge_alloc;
  obs::Counter& pool_hit;
  obs::Histogram& tile_ns;
  obs::Histogram& payload_scalars;
  obs::Gauge& ready_depth;
  /// Per-edge-direction remote send counts (index = edge id).
  std::vector<obs::Counter*> edge_sent;

  DriverMetrics(obs::MetricsRegistry& reg, int num_edges)
      : tiles(reg.counter("runtime.tiles_executed")),
        local_edges(reg.counter("runtime.local_edges")),
        remote_edges(reg.counter("runtime.remote_edges")),
        polls(reg.counter("runtime.polls")),
        idle_ns(reg.counter("runtime.idle_ns")),
        blocked_send_ns(reg.counter("runtime.blocked_send_ns")),
        edge_alloc(reg.counter("runtime.edge_alloc")),
        pool_hit(reg.counter("runtime.pool_hit")),
        tile_ns(reg.histogram("runtime.tile_latency_ns")),
        payload_scalars(reg.histogram("runtime.edge_payload_scalars")),
        ready_depth(reg.gauge("runtime.ready_queue_depth")) {
    for (int e = 0; e < num_edges; ++e)
      edge_sent.push_back(&reg.counter(cat("runtime.edge_sent.e", e)));
  }
};

}  // namespace detail

/// Executes one rank's share of the problem: the tiles `owners` gives
/// `comm.rank()`.  Returns per-rank statistics.  With a sink, every
/// executed tile's probes and maximum (ProblemHooks::tile_max) are
/// recorded into it.  With a checkpoint store, completed tiles and their
/// outgoing edges are recorded as the run progresses, previously-executed
/// work is credited instead of re-run, and stored edges seed the fresh
/// tile table (restart protocol in checkpoint.hpp).
template <typename S>
RunStats run_node(ProblemHooks<S>& hooks, const OwnerTable& owners,
                  minimpi::Comm& comm, const RunOptions& opt,
                  CheckpointStore<S>* checkpoint = nullptr,
                  ResultSink<S>* sink = nullptr) {
  using Clock = std::chrono::steady_clock;
  const auto t_start = Clock::now();
  const int rank = comm.rank();
  const int dim = hooks.dim();
  const int num_edges = hooks.num_edges();

  obs::Session* const session = opt.session;
  const bool profiling = session && session->profiling();
  obs::ThreadBinding rank_binding(session, rank, 0);
  // Without a Session the counters still run, into a registry no one reads.
  std::optional<obs::MetricsRegistry> scratch_metrics;
  detail::DriverMetrics metrics(
      session ? session->metrics() : scratch_metrics.emplace(), num_edges);

  RunStats stats;
  ShardedTileTable<S> table(opt.order, opt.queue_shards,
                            &metrics.ready_depth);
  // Producers can only re-execute (and re-send credited edges) after a
  // resume or restart; the per-edge executed() screens below are skipped
  // entirely on a clean first attempt.  Fixed for the whole attempt: the
  // store enters replay mode between attempts, never mid-run.
  const bool ckpt_replay = checkpoint && checkpoint->replay_possible();
  if (opt.replay_guard || ckpt_replay) table.enable_replay_guard();

  // ---- initial tiles (paper IV.K): serial, then filtered by ownership ----
  {
    obs::ScopedSpan span(obs::Phase::kInitScan);
    const auto t0 = Clock::now();
    std::vector<IntVec> initial;
    hooks.initial_tiles(initial);
    std::sort(initial.begin(), initial.end());
    initial.erase(std::unique(initial.begin(), initial.end()), initial.end());
    for (auto& t : initial) {
      if (owners.owner(t) != rank) continue;
      // Tiles the checkpoint already has results for are credited below
      // instead of re-run.
      if (ckpt_replay && checkpoint->executed(t)) continue;
      table.seed_ready(std::move(t));
      ++stats.initial_tiles;
    }
    stats.init_scan_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  const Int owned = owners.owned_tiles(rank);
  std::atomic<long long> done{0};
  if (checkpoint) {
    // Restart seeding: credit executed owned tiles and replay stored
    // edges for this rank's not-yet-executed consumers into the fresh
    // table.  Non-executed producers re-execute and re-send live.
    done.store(checkpoint->seed_rank(
        rank, [&](const IntVec& t) { return owners.owner(t); },
        [&](const IntVec& t) { return hooks.dep_count(t); }, table));
    checkpoint->attach_table(rank, &table);
  }
  // Declared after `table` so detach runs before the table dies.
  struct CheckpointDetach {
    CheckpointStore<S>* store;
    int rank;
    ~CheckpointDetach() {
      if (store) store->detach_table(rank);
    }
  } checkpoint_detach{checkpoint, rank};
  // Cells of tiles started (credited at dispatch, not completion — see the
  // worker loop).  Only maintained when monitored.
  std::atomic<long long> done_cells{0};
  std::atomic<long long> progress_marker{0};
  std::mutex poll_mu;  // the paper's "poll ... if lock available"
  std::mutex stats_mu;
  // Stall diagnostics: workers currently stuck in the blocked-send retry
  // loop, and the last tile any worker completed (last_tiles below).  Both
  // feed the stall-abort message so a stalled rank reports what it was
  // waiting on.
  std::atomic<int> blocked_senders{0};
  // Worker-failure latch: the first exception a worker throws (a
  // TransportFailure from a poisoned wire, or a hook error) is captured
  // and rethrown after the join; the flag stops the other workers' loops
  // so they unwind instead of waiting for tiles that will never come.
  std::atomic<bool> worker_failed{false};
  std::mutex error_mu;
  std::exception_ptr first_error;
  // Workers currently processing a popped tile (unpack/execute/pack);
  // feeds RankSnapshot::active_workers so the straggler detector can tell
  // "busy inside a long kernel" apart from "dependency-starved".
  std::atomic<int> busy_workers{0};
  // One slot per worker, written after each of its tiles and read only by
  // the stall abort, so the per-tile store never contends across workers.
  struct alignas(64) LastTile {
    std::mutex mu;
    long long seq = 0;  // rank-wide completion number; 0 = none yet
    IntVec tile;
  };
  std::vector<LastTile> last_tiles(static_cast<std::size_t>(opt.threads));
  // Wire buffers are recycled rank-wide: try_recv frees a message's buffer
  // into this pool and the next remote pack reuses it, so a pipelined
  // exchange settles into zero wire allocations per edge.
  detail::SharedBufferPool<std::uint8_t> wire_pool;

  // Live telemetry: builds a RankSnapshot on demand.  Takes the shard
  // locks, so it only runs when the monitor's sampler raised this rank's
  // want flag (claim() below) — never on the steady-state path.
  auto monitor_snapshot = [&]() {
    obs::RankSnapshot s;
    s.t_s = opt.monitor->now_s();
    const TableSnapshot snap = table.snapshot();
    s.pending_tiles = snap.pending_tiles;
    s.ready_tiles = snap.ready_tiles;
    s.buffered_edges = snap.buffered_edges;
    s.executed = done.load(std::memory_order_relaxed);
    s.executed_cells = done_cells.load(std::memory_order_relaxed);
    s.owned = owned;
    s.blocked_senders = blocked_senders.load(std::memory_order_relaxed);
    s.bytes_sent = static_cast<long long>(comm.bytes_sent());
    s.messages_sent = static_cast<long long>(comm.messages_sent());
    s.progress_marker = progress_marker.load(std::memory_order_relaxed);
    s.active_workers = busy_workers.load(std::memory_order_relaxed);
    s.workers = opt.threads;
    s.mailbox_depth = static_cast<long long>(comm.mailbox_depth());
    if (profiling) {
      const auto prof = obs::Profiler::instance().rank_totals(rank);
      s.prof_cycles = static_cast<long long>(prof.cycles);
      s.prof_instructions = static_cast<long long>(prof.instructions);
      s.prof_sampled_cells = static_cast<long long>(prof.sampled_cells);
      s.prof_sampled_exec_ns =
          static_cast<long long>(prof.sampled_exec_ns);
    }
    return s;
  };
  // Marker value a stall_warning was already issued for: one warning per
  // no-progress stretch, re-armed as soon as any worker makes progress.
  std::atomic<long long> stall_warned_marker{-1};

  auto expected_deps = [&](const IntVec& t) { return hooks.dep_count(t); };

  auto worker = [&](int worker_id) {
    obs::ThreadBinding binding(session, rank, worker_id);
    // Profiled runs: arm this worker's sampling timer + counter group for
    // the duration of the run (no-op when the profiler is inactive).
    obs::ProfileThreadScope prof_scope(profiling, rank, worker_id);
    const bool msg_traced = obs::msg_tracing();
    const int preferred_shard = worker_id % table.shards();
    RunStats local;
    // Zeroed here, once per worker; step 2 explains why tiles can share it.
    std::vector<S> buffer(static_cast<std::size_t>(hooks.buffer_size()));
    // Payload vectors cycle worker-locally: each tile's unpack releases
    // exactly the buffers its packs then re-acquire, so after warm-up
    // every acquire is a pool hit.
    detail::BufferPool<S> payload_pool;
    IntVec consumer(static_cast<std::size_t>(dim));
    IntVec producer(static_cast<std::size_t>(dim));
    IntVec poll_consumer;
    IntVec max_point(static_cast<std::size_t>(dim));
    // Outgoing edges of the tile in flight, captured for the checkpoint
    // (recorded atomically with the executed mark in tile_complete).
    std::vector<CheckpointEdge<S>> ckpt_edges;
    long long seen_marker = progress_marker.load();
    auto seen_time = Clock::now();
    detail::Backoff backoff;
    // Set while in an idle stretch (no ready tile): its start time.
    bool idling = false;
    auto idle_since = Clock::now();
    // Idle spans are recorded retrospectively (no ScopedSpan wraps the
    // stretch), so the profiler's phase frame is maintained by hand.
    bool idle_frame = false;
    // Ends the idle stretch: its time, its span and its profiler frame.
    auto close_idle = [&]() {
      obs::profile_frame_pop(idle_frame);
      idle_frame = false;
      idling = false;
      const double idle =
          std::chrono::duration<double>(Clock::now() - idle_since).count();
      local.idle_seconds += idle;
      metrics.idle_ns.add(static_cast<std::int64_t>(idle * 1e9));
      if (obs::tracing()) {
        const std::int64_t end_ns = obs::now_ns();
        obs::record_span(obs::Phase::kIdle,
                         end_ns - static_cast<std::int64_t>(idle * 1e9),
                         end_ns);
      }
    };

    auto poll = [&]() -> bool {
      std::unique_lock<std::mutex> lock(poll_mu, std::try_to_lock);
      if (!lock.owns_lock()) return false;
      obs::ScopedSpan span(obs::Phase::kPoll);
      bool got = false;
      std::int64_t batch_deliver_ns = 0;
      while (auto msg = comm.try_recv()) {
        EdgeData<S> ed;
        ed.payload = payload_pool.acquire();
        detail::decode_edge<S>(msg->payload, dim, num_edges, &ed.edge,
                               &poll_consumer, &ed.payload);
        if (msg->env.seq >= 0) {
          // Traced message: complete the sender/transport half of the
          // lifecycle envelope into the edge's record; unpack and
          // dispatch are stamped when the consumer tile runs.
          ed.msg.seq = msg->env.seq;
          ed.msg.pack_ns = msg->env.pack_ns;
          ed.msg.send_ns = msg->env.send_ns;
          ed.msg.admit_ns = msg->env.admit_ns;
          // One clock read per drain sweep, not per message.  A message
          // admitted after that read (while the sweep was still draining)
          // is delivered no earlier than its admission, so the stamp is
          // clamped to admit_ns to keep the lifecycle monotone.
          if (batch_deliver_ns == 0) batch_deliver_ns = obs::now_ns();
          ed.msg.deliver_ns = std::max(batch_deliver_ns, msg->env.admit_ns);
          ed.msg.bytes = static_cast<std::int64_t>(msg->payload.size());
          ed.msg.src = static_cast<std::int16_t>(msg->source);
          ed.msg.dst = static_cast<std::int16_t>(rank);
          ed.msg.src_thread = msg->env.src_thread;
          ed.msg.edge = static_cast<std::int16_t>(ed.edge);
        }
        wire_pool.release(std::move(msg->payload));
        // After a restart/resume, a re-executing producer re-sends edges
        // whose consumer the checkpoint already credits as executed.
        // Delivering those would rebuild the consumer's full dependency
        // set and make it execute twice, so they are dropped here.
        if (ckpt_replay && checkpoint->executed(poll_consumer)) {
          if (ed.msg.seq >= 0) {
            // Delivered-but-screened: record it now (conservation counts
            // the delivery; dispatch never happens for a replayed edge).
            ed.msg.unpack_ns = ed.msg.deliver_ns;
            ed.msg.dispatch_ns = ed.msg.deliver_ns;
            ed.msg.dst_thread = static_cast<std::int16_t>(worker_id);
            obs::record_msg(ed.msg);
          }
          payload_pool.release(std::move(ed.payload));
        } else {
          table.deliver(poll_consumer, expected_deps, std::move(ed));
        }
        got = true;
      }
      ++local.polls;
      return got;
    };

    while (!worker_failed.load(std::memory_order_acquire) &&
           done.load(std::memory_order_acquire) < owned) {
      auto ready = table.pop(preferred_shard);
      if (!ready) {
        // 6'. idle path: poll, then back off so the core is not burnt.
        if (!idling) {
          idling = true;
          idle_since = Clock::now();
          idle_frame = obs::profile_frame_push(obs::Phase::kIdle);
        }
        if (poll()) {
          progress_marker.fetch_add(1);
          backoff.reset();
        }
        ++local.idle_spins;
        backoff.pause();
        if (opt.monitor && opt.monitor->claim(rank))
          opt.monitor->publish(rank, monitor_snapshot());
        if (opt.stall_timeout_seconds > 0) {
          long long marker = progress_marker.load();
          if (marker != seen_marker) {
            seen_marker = marker;
            seen_time = Clock::now();
          } else {
            const double waited =
                std::chrono::duration<double>(Clock::now() - seen_time)
                    .count();
            if (checkpoint && opt.recover_stall_seconds > 0 &&
                waited > opt.recover_stall_seconds) {
              // Recovery path: dependencies this rank is starving for are
              // presumed lost (a dropped message cannot be told apart
              // from a slow one, so the budget decides).  Poison the
              // transport so every rank unwinds; the launcher restarts
              // from the checkpoint and producers re-send.
              const TableSnapshot snap = table.snapshot();
              const std::string why = cat(
                  "no progress for ", waited, "s (recover budget ",
                  opt.recover_stall_seconds, "s): presumed message loss; "
                  "ready=", snap.ready_tiles, " pending=",
                  snap.pending_tiles, " buffered_edges=",
                  snap.buffered_edges, " executed=", done.load(), "/",
                  owned);
              comm.declare_failure(why);
              throw minimpi::TransportFailure(why);
            }
            if (waited > 0.5 * opt.stall_timeout_seconds) {
              // Halfway to the abort: warn once per no-progress stretch so
              // live monitors see trouble before the run dies.
              long long warned =
                  stall_warned_marker.load(std::memory_order_relaxed);
              if (warned != marker &&
                  stall_warned_marker.compare_exchange_strong(warned,
                                                              marker)) {
                ++local.stall_warnings;
                const TableSnapshot snap = table.snapshot();
                std::fprintf(
                    stderr,
                    "dpgen: stall_warning: rank %d made no progress for "
                    "%.2fs (timeout %.2fs): ready=%lld pending=%lld "
                    "buffered_edges=%lld executed=%lld/%lld "
                    "blocked_senders=%d\n",
                    rank, waited, opt.stall_timeout_seconds,
                    snap.ready_tiles, snap.pending_tiles,
                    snap.buffered_edges, done.load(),
                    static_cast<long long>(owned), blocked_senders.load());
                if (opt.monitor) {
                  obs::RankSnapshot ms = monitor_snapshot();
                  opt.monitor->stall_warning(rank, ms, waited,
                                             opt.stall_timeout_seconds);
                }
              }
            }
            if (waited > opt.stall_timeout_seconds) {
              const TableSnapshot snap = table.snapshot();
              std::string last = "(none)";
              long long last_seq = 0;
              for (LastTile& slot : last_tiles) {
                std::lock_guard<std::mutex> lock(slot.mu);
                if (slot.seq <= last_seq) continue;
                last_seq = slot.seq;
                last = "(";
                for (std::size_t k = 0; k < slot.tile.size(); ++k)
                  last += cat(k ? "," : "", slot.tile[k]);
                last += ")";
              }
              raise(cat(
                  "runtime stalled: no tile became ready within the stall "
                  "timeout (likely a scheduling bug or a dead peer rank); "
                  "rank ", rank, " scheduler snapshot: ready=",
                  snap.ready_tiles, " pending=", snap.pending_tiles,
                  " buffered_edges=", snap.buffered_edges, " executed=",
                  done.load(), "/", owned, " owned tiles, blocked_senders=",
                  blocked_senders.load(), " (", comm.blocked_sends(),
                  " blocked sends so far), last tile completed: ", last));
            }
          }
        }
        continue;
      }
      if (idling) {
        close_idle();
        backoff.reset();
      }
      busy_workers.fetch_add(1, std::memory_order_relaxed);
      progress_marker.fetch_add(1, std::memory_order_relaxed);
      // Cells are credited at tile *start* so a worker grinding through one
      // expensive tile doesn't read as stalled between heartbeats (cell
      // counts are heavy-tailed; completion-credit is a step function whose
      // flats the straggler detector would mistake for slowness).  The
      // profiler's per-tile totals reuse the same count.
      const Int tile_cells_now = (opt.monitor || profiling)
                                     ? hooks.tile_cells(ready->tile)
                                     : 0;
      if (opt.monitor)
        done_cells.fetch_add(tile_cells_now, std::memory_order_relaxed);

      // 2. unpack stored edges (payloads go back to the pool, where step
      // 4's packs pick them straight up again).  The buffer is not
      // cleared between tiles: unpack writes every valid dependency cell
      // outside the tile, execute writes every domain cell inside it, pack
      // moves domain cells only, and every read of an invalid dependency
      // is guarded (is_valid_*).  So no cell left over from the previous
      // tile reaches a result, a payload or a checkpoint.  Poisoned runs
      // refill the buffer with NaN per tile, which is how tests prove it.
      {
        obs::ScopedSpan span(obs::Phase::kUnpack, &ready->tile);
        if constexpr (std::is_floating_point_v<S>) {
          if (opt.poison_buffers)
            std::fill(buffer.begin(), buffer.end(),
                      std::numeric_limits<S>::quiet_NaN());
        }
        // All of this tile's stored edges unpack back to back; one stamp
        // (taken at the first traced edge) marks the batch, keeping the
        // clock off the hot path for locally-fed tiles.
        std::int64_t unpack_ns = 0;
        for (auto& e : ready->edges) {
          const IntVec& off = hooks.edge_offset(e.edge);
          for (int k = 0; k < dim; ++k)
            producer[static_cast<std::size_t>(k)] =
                add_ck(ready->tile[static_cast<std::size_t>(k)],
                       off[static_cast<std::size_t>(k)]);
          hooks.unpack(e.edge, producer, e.payload.data(),
                       static_cast<Int>(e.payload.size()), buffer.data());
          if (e.msg.seq >= 0) {
            if (unpack_ns == 0) unpack_ns = obs::now_ns();
            e.msg.unpack_ns = unpack_ns;
          }
          payload_pool.release(std::move(e.payload));
        }
      }

      // Dispatch stamp: the dependent tile is about to execute.  Each
      // remote edge's lifecycle record is complete here, so it goes into
      // the ring (one shared stamp — the edges unblock the same tile).
      if (msg_traced) {
        // Most tiles are fed by local edges only; find a traced edge
        // before touching the clock so purely-local tiles pay a short
        // scan, not a timestamp per pop.
        std::int64_t dispatch_ns = 0;
        const auto nc = static_cast<std::uint8_t>(std::min<std::size_t>(
            ready->tile.size(), obs::kMaxSpanDims));
        for (auto& e : ready->edges) {
          if (e.msg.seq < 0) continue;
          if (dispatch_ns == 0) dispatch_ns = obs::now_ns();
          e.msg.dispatch_ns = dispatch_ns;
          e.msg.dst_thread = static_cast<std::int16_t>(worker_id);
          e.msg.ncoord = nc;
          for (std::uint8_t k = 0; k < nc; ++k)
            e.msg.consumer[k] = static_cast<std::int32_t>(ready->tile[k]);
          obs::record_msg(e.msg);
        }
      }

      // 3. execute
      {
        obs::ScopedSpan span(obs::Phase::kTileExecute, &ready->tile);
        const bool prof_window = profiling && obs::Profiler::tile_begin();
        const auto t0 = Clock::now();
        hooks.execute_tile(ready->tile, buffer.data());
        const std::int64_t exec_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count();
        if (profiling)
          obs::Profiler::tile_end(prof_window,
                                  static_cast<long long>(tile_cells_now),
                                  exec_ns);
        metrics.tile_ns.observe(exec_ns);
      }
      hooks.on_tile_executed(ready->tile, buffer.data());
      if (sink) {
        sink->record_probes(ready->tile, buffer.data());
        S max_value{};
        if (hooks.tile_max(ready->tile, buffer.data(), max_value,
                           max_point.data()))
          sink->merge_max(max_value, max_point.data(), dim);
      }
      ++local.tiles_executed;

      // 4. pack and route each valid outgoing edge
      for (int e = 0; e < num_edges; ++e) {
        const IntVec& off = hooks.edge_offset(e);
        for (int k = 0; k < dim; ++k)
          consumer[static_cast<std::size_t>(k)] =
              sub_ck(ready->tile[static_cast<std::size_t>(k)],
                     off[static_cast<std::size_t>(k)]);
        if (!hooks.tile_exists(consumer)) continue;
        // Executed consumers (possible only after a restart/resume, when
        // this producer is re-running) already folded this edge into their
        // recorded results; sending it again would at best be dropped at
        // the receiver and at worst re-execute the consumer.
        if (ckpt_replay && checkpoint->executed(consumer)) continue;
        const int dst = owners.owner(consumer);
        if (dst == rank) {
          // Local edge: pack into a pooled payload vector and move it
          // into the table — no copies anywhere on the path.
          EdgeData<S> ed;
          ed.edge = e;
          ed.payload = payload_pool.acquire();
          ed.payload.resize(
              static_cast<std::size_t>(hooks.edge_capacity(e)));
          Int count;
          {
            obs::ScopedSpan span(obs::Phase::kPack, &ready->tile);
            count = hooks.pack(e, ready->tile, buffer.data(),
                               ed.payload.data());
          }
          DPGEN_ASSERT(count >= 0 &&
                       count <= static_cast<Int>(ed.payload.size()));
          ed.payload.resize(static_cast<std::size_t>(count));
          metrics.payload_scalars.observe(count);
          if (checkpoint)
            ckpt_edges.push_back(CheckpointEdge<S>{consumer, e, ed.payload});
          table.deliver(consumer, expected_deps, std::move(ed));
          ++local.local_edges;
        } else {
          // Remote edge: pack straight into the wire buffer after the
          // reserved header, then move the buffer into the mailbox.
          obs::ScopedSpan span(obs::Phase::kSend, &consumer);
          minimpi::MsgEnvelope env;
          if (msg_traced) env.pack_ns = obs::now_ns();
          std::vector<std::uint8_t> wire = wire_pool.acquire();
          S* out = detail::begin_edge_wire<S>(wire, dim,
                                              hooks.edge_capacity(e));
          Int count;
          {
            obs::ScopedSpan pack_span(obs::Phase::kPack, &ready->tile);
            count = hooks.pack(e, ready->tile, buffer.data(), out);
          }
          DPGEN_ASSERT(count >= 0 && count <= hooks.edge_capacity(e));
          detail::finish_edge_wire<S>(wire, e, consumer, count);
          metrics.payload_scalars.observe(count);
          if (checkpoint)
            // finish_edge_wire only shrinks the buffer, so `out` (the
            // payload region) is still valid here.
            ckpt_edges.push_back(
                CheckpointEdge<S>{consumer, e, std::vector<S>(out, out + count)});
          if (msg_traced) {
            // One sequence number per message, assigned before the retry
            // loop — retries reuse the same envelope, so a blocked send
            // never burns extra numbers.
            env.seq = comm.next_seq(dst);
            env.send_ns = obs::now_ns();
            env.src_thread = static_cast<std::int16_t>(worker_id);
          }
          const minimpi::MsgEnvelope* envp = msg_traced ? &env : nullptr;
          if (!comm.try_send(dst, e, wire, envp)) {
            // Destination buffers full: service our own mailbox while
            // backing off, which avoids cyclic send deadlocks under
            // small buffer budgets.
            obs::ScopedSpan blocked(obs::Phase::kBlockedSend, &consumer);
            const auto t0 = Clock::now();
            blocked_senders.fetch_add(1, std::memory_order_relaxed);
            detail::Backoff send_backoff;
            do {
              if (worker_failed.load(std::memory_order_acquire))
                raise("peer worker failed while this send was blocked");
              poll();
              send_backoff.pause();
            } while (!comm.try_send(dst, e, wire, envp));
            blocked_senders.fetch_sub(1, std::memory_order_relaxed);
            const double waited =
                std::chrono::duration<double>(Clock::now() - t0).count();
            local.blocked_send_seconds += waited;
            metrics.blocked_send_ns.add(
                static_cast<std::int64_t>(waited * 1e9));
          }
          metrics.edge_sent[static_cast<std::size_t>(e)]->increment();
          ++local.remote_edges;
        }
      }

      // Completed-tile record (the executed mark and the outgoing edges
      // land in one atomic step, so the store never names a producer
      // whose edges it does not hold).
      if (checkpoint) {
        checkpoint->tile_complete(ready->tile, std::move(ckpt_edges));
        ckpt_edges.clear();
      }

      {
        LastTile& slot = last_tiles[static_cast<std::size_t>(worker_id)];
        std::lock_guard<std::mutex> lock(slot.mu);
        slot.seq = done.fetch_add(1, std::memory_order_release) + 1;
        slot.tile.assign(ready->tile.begin(), ready->tile.end());
      }
      // 5. hand the tile's containers back to the table so the next
      // pending slots reuse their heap storage (payloads already went to
      // payload_pool during unpack).
      table.recycle(std::move(*ready));
      // Publish (if asked) before dropping busy_workers so the snapshot
      // still counts this worker as active for the tile it just finished.
      if (opt.monitor && opt.monitor->claim(rank))
        opt.monitor->publish(rank, monitor_snapshot());
      busy_workers.fetch_sub(1, std::memory_order_relaxed);
      // 6. opportunistic poll
      poll();
    }

    // Workers that drain early exit the loop mid-idle (the loop condition
    // flips while they wait for peers to finish the last tiles), so the
    // stretch must be closed here: this tail idle is exactly what the
    // load-balance audit attributes imbalance to.
    if (idling) close_idle();

    local.pool_hits += payload_pool.hits();
    local.edge_allocs += payload_pool.misses();

    metrics.tiles.add(local.tiles_executed);
    metrics.local_edges.add(local.local_edges);
    metrics.remote_edges.add(local.remote_edges);
    metrics.polls.add(local.polls);
    metrics.pool_hit.add(local.pool_hits);
    metrics.edge_alloc.add(local.edge_allocs);

    std::lock_guard<std::mutex> lock(stats_mu);
    stats.tiles_executed += local.tiles_executed;
    stats.local_edges += local.local_edges;
    stats.remote_edges += local.remote_edges;
    stats.polls += local.polls;
    stats.idle_spins += local.idle_spins;
    stats.edge_allocs += local.edge_allocs;
    stats.pool_hits += local.pool_hits;
    stats.idle_seconds += local.idle_seconds;
    stats.blocked_send_seconds += local.blocked_send_seconds;
    stats.stall_warnings += local.stall_warnings;
  };

  // Worker exceptions must not escape their threads (std::terminate);
  // capture the first and rethrow it on the spawning thread after the
  // join, which is how a TransportFailure reaches the launcher's
  // fault-tolerant restart loop.
  auto guarded_worker = [&](int w) {
    try {
      worker(w);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      worker_failed.store(true, std::memory_order_release);
    }
  };

#if defined(_OPENMP) && defined(DPGEN_RUNTIME_USE_OPENMP)
#pragma omp parallel num_threads(opt.threads)
  { guarded_worker(omp_get_thread_num()); }
#else
  if (opt.threads <= 1) {
    guarded_worker(0);
  } else {
    std::vector<std::thread> threads;
    for (int w = 0; w < opt.threads; ++w)
      threads.emplace_back(guarded_worker, w);
    for (auto& t : threads) t.join();
  }
#endif

  if (first_error) {
    // A rank about to unwind must not leave its peers parked: they may
    // already be waiting in the final barrier (which only wakes on
    // transport failure) or starving for edges this rank will never send.
    // TransportFailure implies the transport is already poisoned; any
    // other error poisons it here so the whole world unwinds.
    try {
      std::rethrow_exception(first_error);
    } catch (const minimpi::TransportFailure&) {
    } catch (const std::exception& e) {
      comm.declare_failure(cat("rank ", rank, " worker error: ", e.what()));
    } catch (...) {
      comm.declare_failure(cat("rank ", rank, " worker error"));
    }
    std::rethrow_exception(first_error);
  }

  stats.edge_allocs += wire_pool.misses();
  stats.pool_hits += wire_pool.hits();
  metrics.edge_alloc.add(wire_pool.misses());
  metrics.pool_hit.add(wire_pool.hits());

  // Forced final heartbeat: even a run shorter than the sampling interval
  // leaves one complete (fully-executed, drained-table) snapshot per rank.
  if (opt.monitor) opt.monitor->publish(rank, monitor_snapshot());

  {
    obs::ScopedSpan span(obs::Phase::kBarrier);
    comm.barrier();
  }
  stats.table = table.stats();
  stats.messages_sent = comm.messages_sent();
  stats.bytes_sent = comm.bytes_sent();
  stats.blocked_sends = comm.blocked_sends();
  stats.total_seconds =
      std::chrono::duration<double>(Clock::now() - t_start).count();

  // Merge every rank's spans, then the message records each rank
  // received, to rank 0.  Collective: every rank shares the Session, so
  // all of them take each branch together or none does.
  if (session && session->tracing()) {
    obs::ScopedSpan span(obs::Phase::kGather);
    session->spans().add_merged(
        obs::gather_records(comm, session->spans().collect_rank(rank)));
  }
  if (session && session->msg_tracing()) {
    obs::ScopedSpan span(obs::Phase::kGather);
    session->msgs().add_merged(
        obs::gather_records(comm, session->msgs().collect_rank(rank)));
  }
  return stats;
}

// Compiled once in dpgen_runtime (driver.cpp).
extern template RunStats run_node<double>(ProblemHooks<double>&,
                                          const OwnerTable&, minimpi::Comm&,
                                          const RunOptions&,
                                          CheckpointStore<double>*,
                                          ResultSink<double>*);

}  // namespace dpgen::runtime
