#pragma once
// minimpi: an in-process message-passing substrate with MPI-like semantics.
//
// The paper's generated programs are hybrid OpenMP + MPI; this container
// has no MPI installation, so minimpi supplies the message-passing layer
// (see DESIGN.md, substitutions): ranks run as std::threads inside one
// process, each with a tagged mailbox.  Sends copy the payload into the
// destination mailbox (blocking when the mailbox is at capacity, which
// models the generated programs' configurable number of send/receive
// buffers); receives are by polling (iprobe/try_recv) or blocking (recv).
// Collectives (barrier, allreduce) follow MPI semantics.
//
// The byte-moving substrate itself lives behind the Transport interface
// (transport.hpp): World/Comm implement the MPI-shaped semantics on top
// of whatever Transport they are constructed with — the in-process
// mailboxes by default, or a fault-injecting decorator (faults.hpp) for
// chaos testing.  When the transport fails, every blocked collective and
// receive wakes up and throws TransportFailure.
//
// Everything the runtime does with this interface maps 1:1 onto real MPI
// calls (MPI_Send/MPI_Iprobe/MPI_Recv/MPI_Barrier/MPI_Allreduce), so
// generated code can be retargeted by swapping this header's backend.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "minimpi/transport.hpp"
#include "support/checked.hpp"

namespace dpgen::obs {
class Counter;
class Histogram;
class MetricsRegistry;
}

namespace dpgen::minimpi {

class World;

class Comm;

/// Handle for a nonblocking operation (MPI_Request analogue).  Obtained
/// from Comm::isend / Comm::irecv; poll with test() or block with wait().
/// Requests are movable, single-owner, and must not outlive their Comm.
class Request {
 public:
  Request() = default;

  /// True once the operation completed (idempotent after completion).
  bool test();

  /// Blocks (by polling) until completion.
  void wait();

  bool done() const { return done_; }

  /// The received message; only valid for completed irecv requests.
  const Message& message() const;

 private:
  friend class Comm;
  enum class Kind { kInvalid, kSend, kRecv };

  Comm* comm_ = nullptr;
  Kind kind_ = Kind::kInvalid;
  bool done_ = false;
  // send state
  int dst_ = -1;
  int tag_ = 0;
  std::vector<std::uint8_t> payload_;
  // recv state
  int want_src_ = -1;  // -1 = any
  int want_tag_ = -1;  // -1 = any
  Message received_;
};

/// A rank's endpoint: everything a node runtime needs to communicate.
/// Thread-safe: multiple worker threads of one rank may use it concurrently
/// (the generated programs poll under a lock; minimpi locks internally).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Copies `bytes` of `data` into rank `dst`'s mailbox.  Blocks while the
  /// destination mailbox is at capacity (capacity 0 = unbounded).
  void send(int dst, int tag, const void* data, std::size_t bytes);

  /// Move-in variant: the payload vector's heap storage becomes the
  /// mailbox Message's, with no intermediate copy (the MPI analogue is a
  /// buffer handed to MPI_Send and reused after return; here ownership
  /// transfers outright, which is what lets the runtime pool wire
  /// buffers end to end).
  void send(int dst, int tag, std::vector<std::uint8_t>&& payload);

  /// Non-blocking send: returns false (without sending) when the
  /// destination mailbox is at capacity.  Callers that hold work to do —
  /// like the tile worker loop — use this and service their own mailbox
  /// while waiting, which avoids cyclic send deadlocks under small buffer
  /// budgets.
  bool try_send(int dst, int tag, const void* data, std::size_t bytes);

  /// Move-in variant of try_send: on success the payload is moved into
  /// the mailbox (and left empty); on failure it is untouched, so a
  /// retry loop keeps using the same buffer.  When `env` is non-null the
  /// message carries that lifecycle envelope (causal message tracing);
  /// retries of the same message must reuse the same envelope so the
  /// sequence number is assigned exactly once.
  bool try_send(int dst, int tag, std::vector<std::uint8_t>& payload,
                const MsgEnvelope* env = nullptr);

  /// Assigns the next data-plane sequence number for the `rank() -> dst`
  /// link.  Call once per traced message, before the send retry loop.
  std::int64_t next_seq(int dst) {
    return static_cast<std::int64_t>(
        peers_[static_cast<std::size_t>(dst)].data_seq.fetch_add(
            1, std::memory_order_relaxed));
  }

  /// Current depth of this rank's own mailbox (backpressure gauge).
  std::size_t mailbox_depth();

  /// True when a message is waiting; fills src/tag when non-null.
  bool iprobe(int* src = nullptr, int* tag = nullptr);

  /// Pops the oldest waiting message, if any.
  std::optional<Message> try_recv();

  /// Blocks until a message arrives.
  Message recv();

  /// Nonblocking send: the payload is copied immediately; delivery
  /// happens on test()/wait() when the destination mailbox has space
  /// (immediately when unbounded).
  Request isend(int dst, int tag, const void* data, std::size_t bytes);

  /// Nonblocking receive matching source/tag (-1 = any).  Completion is
  /// checked on test()/wait(); the matched message may arrive out of
  /// arrival order relative to non-matching messages (MPI matching).
  Request irecv(int source = -1, int tag = -1);

  /// Pops the oldest message matching source/tag (-1 = any), if present.
  std::optional<Message> try_recv_match(int source, int tag);

  /// Blocks until every rank has entered the barrier — or the transport
  /// fails, in which case TransportFailure is thrown.
  void barrier();

  /// Sum-reduction over all ranks; every rank receives the total.
  Int allreduce_sum(Int value);
  double allreduce_sum(double value);

  /// Max-reduction over all ranks.
  double allreduce_max(double value);

  /// Broadcast: every rank receives root's bytes (MPI_Bcast semantics —
  /// all ranks call with the same root; buffers must be `bytes` long).
  void broadcast(int root, void* data, std::size_t bytes);

  /// Gather: root receives size() payloads concatenated in rank order
  /// (each rank contributes `bytes` bytes); non-root out stays untouched.
  void gather(int root, const void* send, std::size_t bytes,
              std::vector<std::uint8_t>* out);

  /// Poisons the transport stack: every rank's next transport operation
  /// (including this rank's) throws TransportFailure.  The driver's
  /// recovery path uses this when a rank concludes messages were lost —
  /// stalled with dependencies that will never arrive — so the engine can
  /// unwind all ranks and restart from the checkpoint.
  void declare_failure(const std::string& reason);

  // ---- statistics (atomic: several worker threads share one Comm) ---------
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  /// Number of sends that found the destination mailbox full.
  std::uint64_t blocked_sends() const { return blocked_sends_; }

  /// Per-peer send totals (the communication-matrix source: row = this
  /// rank, column = dst).  Collective traffic (broadcast/gather) counts
  /// too, so summing a row reproduces messages_sent()/bytes_sent().
  std::uint64_t messages_sent_to(int dst) const {
    return peers_[static_cast<std::size_t>(dst)].messages.load(
        std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent_to(int dst) const {
    return peers_[static_cast<std::size_t>(dst)].bytes.load(
        std::memory_order_relaxed);
  }

 private:
  friend class World;

  /// Per-destination counters plus cached handles for the registry's
  /// `comm.{messages,bytes}_sent.to<dst>` instruments (null without one).
  struct PeerStats {
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
    /// Traced data-plane sequence counter (next_seq); counts only
    /// messages that were assigned an envelope, so it matches the
    /// msgtrace document's per-link `sent` exactly.
    std::atomic<std::uint64_t> data_seq{0};
    obs::Counter* messages_counter = nullptr;
    obs::Counter* bytes_counter = nullptr;
  };

  /// Send accounting shared by every send path (atomics only).
  void count_send(int dst, std::size_t bytes);
  /// Accounting for a send that found the destination mailbox full.
  void count_blocked();
  /// Shared body of the move-in blocking sends.
  void send_impl(int dst, int tag, std::vector<std::uint8_t>&& payload);

  Transport& transport();

  World* world_ = nullptr;
  int rank_ = -1;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> blocked_sends_{0};
  std::vector<PeerStats> peers_;  // sized by the World constructor
};

/// A communicator world of `nranks` ranks within this process.
class World {
 public:
  /// mailbox_capacity bounds the per-rank receive queue (0 = unbounded),
  /// modelling the paper's configurable send/receive buffer counts.
  /// When `transport` is null an InProcessTransport is created; passing
  /// one explicitly (e.g. a FaultInjector stack) must agree on nranks.
  /// Sends also count into `metrics`' `comm.*` instruments (the run's
  /// registry); null = Comm's own counters only.
  explicit World(int nranks, std::size_t mailbox_capacity = 0,
                 std::shared_ptr<Transport> transport = nullptr,
                 obs::MetricsRegistry* metrics = nullptr);

  int size() const { return static_cast<int>(comms_.size()); }
  Comm& comm(int rank) { return *comms_[static_cast<std::size_t>(rank)]; }
  const Comm& comm(int rank) const {
    return *comms_[static_cast<std::size_t>(rank)];
  }

  /// The wire this world runs on.
  Transport& transport() { return *transport_; }

  /// rank x rank send totals, [source][destination] — the communication
  /// matrix the performance report renders (obs/analysis.hpp).
  std::vector<std::vector<std::uint64_t>> bytes_matrix() const;
  std::vector<std::vector<std::uint64_t>> messages_matrix() const;
  /// Traced data-plane sends per link (sequence numbers assigned via
  /// Comm::next_seq) — the msgtrace conservation baseline.
  std::vector<std::vector<std::uint64_t>> sent_matrix() const;

  /// Runs fn(comm) on every rank, each on its own thread, and joins them.
  /// The first exception thrown by any rank is rethrown here.
  void run(const std::function<void(Comm&)>& fn);

 private:
  friend class Comm;

  /// The registry's comm-wide send instruments (all null without one).
  struct Instruments {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* message_bytes = nullptr;
  };

  std::shared_ptr<Transport> transport_;
  obs::MetricsRegistry* metrics_;
  Instruments instruments_;
  std::vector<std::unique_ptr<Comm>> comms_;  // Comm holds atomics: pinned

  // Barrier state.
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Allreduce state (guarded by barrier_mu_ as well).  All ranks must call
  // matching collectives in the same order, like MPI.
  int reduce_arrived_ = 0;
  std::uint64_t reduce_generation_ = 0;
  Int accum_int_ = 0, result_int_ = 0;
  double accum_dbl_ = 0.0, result_dbl_ = 0.0;

  /// One sum/max round shared by the allreduce overloads.  Failure-aware:
  /// a poisoned transport wakes the waiters (via the listener registered
  /// in the constructor) and they throw instead of waiting forever for
  /// ranks that will never arrive.
  template <typename T>
  T allreduce_round(T value, bool take_max, T& accum, T& result) {
    transport_->check_alive();
    std::unique_lock<std::mutex> lock(barrier_mu_);
    std::uint64_t gen = reduce_generation_;
    if (reduce_arrived_ == 0) accum = value;
    else if (take_max)
      accum = accum < value ? value : accum;
    else
      accum = accum + value;
    if (++reduce_arrived_ == size()) {
      reduce_arrived_ = 0;
      result = accum;
      ++reduce_generation_;
      barrier_cv_.notify_all();
      return result;
    }
    barrier_cv_.wait(lock, [&] {
      return reduce_generation_ != gen || transport_->failed();
    });
    if (reduce_generation_ == gen) {
      --reduce_arrived_;  // round abandoned; leave state consistent
      transport_->check_alive();
    }
    return result;
  }
};

}  // namespace dpgen::minimpi
