#pragma once
// One run's observability state, and the per-thread binding that routes
// records into it.
//
// In the paper's hybrid program every MPI rank is its own process, so its
// traces and counters belong to one run of one rank.  This reproduction
// runs ranks as threads of one process; an obs::Session restores that
// scoping.  runtime::launch owns one per run, across its restart
// attempts.  It holds the run's span rings, message rings and
// MetricsRegistry, and while a profiled run is live it keeps the
// process-wide Profiler armed.
//
// Threads that record (the launch thread, every rank thread and every
// worker) bind to the Session through a ThreadBinding.  The binding sets
// the thread's ring pointers and its (rank, thread) identity, and it
// restores the previous binding on exit.  An unbound thread records
// nothing, so two runs in one process never mix their documents, and an
// OpenMP pool thread reused by a later run never writes into a finished
// Session.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/msgtrace.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace dpgen::obs {

/// The rank a record belongs to and its ordering time.  A message record
/// belongs to the rank that received it.
inline int record_rank(const Span& s) { return s.rank; }
inline std::int64_t record_time(const Span& s) { return s.start_ns; }
inline int record_rank(const MsgRecord& r) { return r.dst; }
inline std::int64_t record_time(const MsgRecord& r) { return r.pack_ns; }

/// Single-writer ring of trivially copyable records.  The owning thread
/// pushes without a lock; once full, the oldest records are overwritten
/// and counted as dropped.  Readers collect after the writer quiesced.
template <typename T>
class RecordRing {
 public:
  explicit RecordRing(std::size_t capacity) : slots_(capacity) {}

  void push(const T& r) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    slots_[head % slots_.size()] = r;
    // Publish after the slot write so collectors never read a torn record.
    head_.store(head + 1, std::memory_order_release);
  }

  /// Records lost because the ring wrapped.
  std::uint64_t dropped() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return head > slots_.size() ? head - slots_.size() : 0;
  }

  /// Appends the surviving records of `rank` to `out`, oldest first.
  void collect_rank(int rank, std::vector<T>* out) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    for (std::uint64_t i = head - std::min<std::uint64_t>(head, slots_.size());
         i < head; ++i) {
      const T& r = slots_[i % slots_.size()];
      if (record_rank(r) == rank) out->push_back(r);
    }
  }

  void clear() { head_.store(0, std::memory_order_release); }

 private:
  std::vector<T> slots_;
  std::atomic<std::uint64_t> head_{0};  ///< records ever pushed
};

/// Every ring a Session holds for one record type, plus the set the
/// end-of-run gather merged on rank 0.  Instantiated for Span and
/// MsgRecord in session.cpp only, so the driver's translation units (and
/// every generated program) do not recompile it.
template <typename T>
class RingSet {
 public:
  RingSet(bool on, std::size_t capacity);

  bool on() const { return on_; }

  /// A fresh ring for one bound thread, pinned for the set's life; null
  /// when the set is off.
  RecordRing<T>* add_ring();

  /// Every surviving record of `rank`, time-ordered (writers quiesced).
  std::vector<T> collect_rank(int rank) const;

  std::uint64_t dropped() const;

  std::vector<T> merged() const;
  void add_merged(const std::vector<T>& records);

  /// Forgets every record, merged ones too (writers quiesced).  Rings stay
  /// registered, so bound threads keep a valid ring.
  void clear();

 private:
  const bool on_;
  const std::size_t capacity_;
  mutable std::mutex mu_;  // guards rings_ growth and merged_
  std::vector<std::unique_ptr<RecordRing<T>>> rings_;
  std::vector<T> merged_;
};

extern template class RingSet<Span>;
extern template class RingSet<MsgRecord>;

class Session {
 public:
  /// Spans / message records one bound thread holds before the oldest are
  /// overwritten.
  static constexpr std::size_t kSpanRingCapacity = 1u << 16;
  static constexpr std::size_t kMsgRingCapacity = 1u << 14;

  /// `trace` / `msgtrace` turn on span / message recording; `profile`
  /// arms the process-wide Profiler until stop_profiler() or destruction.
  Session(bool trace, bool msgtrace,
          std::optional<ProfileOptions> profile = std::nullopt);
  /// Stops the profiler if the run ended without stop_profiler() (a run
  /// that threw), so it is never left armed for the next run.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool tracing() const { return spans_.on(); }
  bool msg_tracing() const { return msgs_.on(); }
  bool profiling() const { return profiling_; }

  RingSet<Span>& spans() { return spans_; }
  RingSet<MsgRecord>& msgs() { return msgs_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Disarms the profiler and returns its document (profiling sessions).
  ProfileDoc stop_profiler();

 private:
  RingSet<Span> spans_;
  RingSet<MsgRecord> msgs_;
  MetricsRegistry metrics_;
  bool profiling_ = false;
};

/// RAII: binds the calling thread to `session` (null = record nothing)
/// as (rank, thread) and restores the previous binding on destruction.
/// Re-binding a thread to the session it is already bound to keeps its
/// rings and changes only the identity.
class ThreadBinding {
 public:
  ThreadBinding(Session* session, int rank, int thread);
  ~ThreadBinding() { detail::t_recorders = prev_; }
  ThreadBinding(const ThreadBinding&) = delete;
  ThreadBinding& operator=(const ThreadBinding&) = delete;

 private:
  detail::ThreadRecorders prev_;
};

}  // namespace dpgen::obs
