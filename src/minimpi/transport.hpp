#pragma once
// Transport: the wire underneath minimpi::World.
//
// World/Comm implement MPI-shaped semantics (tagged sends, probing
// receives, collectives); Transport is the byte-moving substrate those
// semantics run on.  Splitting the two serves ROADMAP item 5 twice over:
//   * portability — retargeting the generated programs to a different wire
//     (real MPI, shared memory segments, sockets) means implementing this
//     interface, not rewriting World;
//   * fault tolerance — a Transport can *fail*: a decorator (faults.hpp)
//     kills ranks and corrupts links on a seeded schedule, and every
//     blocked operation in the stack wakes up and throws TransportFailure
//     so the engine can unwind all ranks and restart from a checkpoint.
//
// The failure state is shared between a decorator and the transport it
// wraps (one FailureState per stack), so poisoning either side poisons
// both and a single set of listeners wakes every waiter — mailbox
// condition variables here, the collective waiters in World.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace dpgen::minimpi {

/// Lifecycle envelope riding alongside the payload (never inside it — the
/// wire bytes and the computed result stay identical with tracing on or
/// off).  Sender and transport fill it in as the message moves; the
/// receiver completes it into an obs::MsgRecord.  All stamps are
/// obs::now_ns() values, the spans' clock.  seq < 0 means untraced
/// (tracing disabled, or a control-plane/collective message).
struct MsgEnvelope {
  std::int64_t seq = -1;      ///< per-link (src -> dst) sequence number
  std::int64_t pack_ns = 0;   ///< sender: payload encode started
  std::int64_t send_ns = 0;   ///< sender: first handed to the transport
  std::int64_t admit_ns = 0;  ///< transport: admitted to dst's mailbox
  std::int16_t src_thread = 0;
};

/// One delivered message: source rank, user tag and a byte payload.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::uint8_t> payload;
  MsgEnvelope env;
};

/// Thrown by every transport operation once the transport has failed (a
/// rank was killed, or a rank declared a failure after losing messages).
/// All ranks unwind through it; the engine's fault-tolerant loop catches
/// it at the top and restarts from the checkpoint over surviving ranks.
class TransportFailure : public Error {
 public:
  explicit TransportFailure(const std::string& what) : Error(what) {}
};

enum class PostResult {
  kDelivered,  ///< message consumed (moved into the destination mailbox)
  kFull,       ///< destination at capacity; message left intact for retry
};

class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual int nranks() const = 0;
  /// Mailbox capacity (0 = unbounded).
  virtual std::size_t capacity() const = 0;

  // ---- sending (src = posting rank) ----

  /// Attempts to append `m` to dst's mailbox.  On kDelivered the message
  /// was consumed; on kFull it is untouched so a retry loop keeps using
  /// the same buffer.
  virtual PostResult try_post(int src, int dst, Message& m) = 0;

  /// Cheap capacity hint: true when a try_post to dst would likely return
  /// kFull right now.  Racy by nature (another sender can change the
  /// answer immediately); purely an optimisation to skip payload copies.
  virtual bool would_block(int dst) const = 0;

  /// Current depth of `rank`'s mailbox — a backpressure gauge for the
  /// monitor, racy like would_block.  Transports without a queue to
  /// inspect report 0.
  virtual std::size_t depth(int rank) const {
    (void)rank;
    return 0;
  }

  /// Blocks until dst's mailbox has space — or the transport fails, in
  /// which case TransportFailure is thrown.
  virtual void wait_capacity(int src, int dst) = 0;

  // ---- receiving (rank = owner of the polled mailbox) ----

  virtual bool probe(int rank, int* src, int* tag) = 0;
  virtual std::optional<Message> collect(int rank) = 0;
  /// Blocks until a message arrives (or the transport fails).
  virtual Message collect_blocking(int rank) = 0;
  /// Pops the oldest message matching source/tag (-1 = any), if present.
  virtual std::optional<Message> collect_match(int rank, int src,
                                               int tag) = 0;

  // ---- failure surface ----

  /// True once the transport has failed; every subsequent operation on
  /// any rank throws TransportFailure.
  bool failed() const {
    return state_->failed.load(std::memory_order_acquire);
  }
  std::string failure_reason() const;

  /// Declares a failure: sets the flag, then runs every registered
  /// listener (outside the state lock) so blocked waiters wake and throw.
  /// Idempotent — only the first reason sticks.
  void fail(const std::string& reason);

  /// Throws TransportFailure when the transport has failed.
  void check_alive() const;

  /// Ranks the fault layer has declared dead.  The base transport never
  /// kills anyone.
  virtual std::vector<int> dead_ranks() const { return {}; }

  /// Registers a callback run once when fail() first fires.  Register
  /// before ranks start; listeners must outlive the transport stack's
  /// active use (World registers its collective-wakeup here).
  void add_failure_listener(std::function<void()> fn);

  /// Failure state shared across a decorator stack.
  struct FailureState {
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::string reason;
    std::vector<std::function<void()>> listeners;
  };

  /// Shared so a decorator can adopt it (one FailureState per stack).
  std::shared_ptr<FailureState> failure_state() const { return state_; }

 protected:
  Transport() : state_(std::make_shared<FailureState>()) {}
  /// Decorator constructor: adopt the wrapped transport's failure state.
  explicit Transport(std::shared_ptr<FailureState> state)
      : state_(std::move(state)) {}

 private:
  std::shared_ptr<FailureState> state_;
};

/// The in-process implementation: per-rank bounded mailboxes (mutex + two
/// condition variables + a deque), exactly the machinery World itself held
/// before the Transport split.  Blocking waits are failure-aware: fail()
/// notifies every condition variable and the wait predicates re-check the
/// poisoned flag, so no rank stays parked on a dead transport.
class InProcessTransport final : public Transport {
 public:
  InProcessTransport(int nranks, std::size_t mailbox_capacity);

  int nranks() const override { return static_cast<int>(boxes_.size()); }
  std::size_t capacity() const override { return capacity_; }

  PostResult try_post(int src, int dst, Message& m) override;
  bool would_block(int dst) const override;
  std::size_t depth(int rank) const override;
  void wait_capacity(int src, int dst) override;

  bool probe(int rank, int* src, int* tag) override;
  std::optional<Message> collect(int rank) override;
  Message collect_blocking(int rank) override;
  std::optional<Message> collect_match(int rank, int src, int tag) override;

  /// Appends regardless of capacity.  The fault layer uses it to reinject
  /// delayed and duplicated messages without re-entering the capacity
  /// gate (a parked message already passed it once).
  void force_post(int dst, Message&& m);

 private:
  struct Mailbox {
    mutable std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<Message> queue;
  };

  Mailbox& box(int rank) const {
    return *boxes_[static_cast<std::size_t>(rank)];
  }

  std::size_t capacity_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
};

}  // namespace dpgen::minimpi
