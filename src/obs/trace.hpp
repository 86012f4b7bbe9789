#pragma once
// Runtime tracing: spans with Perfetto-compatible export.
//
// Every phase of a hybrid run — tile execution, edge unpacking/packing,
// sends, blocked sends, polling, idle backoff, barriers, load balancing —
// is recorded as a Span (steady-clock nanoseconds since one process-wide
// epoch, rank, thread, tile coordinates) into the calling thread's ring of
// the run's obs::Session (obs/session.hpp).  Rings are single-writer: the
// bound thread appends without taking a lock; collection happens after
// the writer quiesced (workers joined, barrier passed).  The spans of all
// ranks are merged through minimpi::Comm::gather at the end of run_node
// (see obs/gather.hpp) and exported as Chrome trace-event JSON
// (obs/export.hpp) with one track per rank x thread, loadable in Perfetto
// or chrome://tracing.
//
// Cost model (the instrumentation sits on the runtime's hottest paths):
//   * compile time: building with -DDPGEN_TRACE=0 compiles every record
//     call and ScopedSpan to nothing — the macro path check.sh verifies;
//   * runtime: a thread records only while a ThreadBinding to a tracing
//     Session is live; otherwise a span site costs one thread-local
//     pointer load and no clock reads.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/vec.hpp"

#ifndef DPGEN_TRACE
#define DPGEN_TRACE 1
#endif

namespace dpgen::obs {

/// True when span recording is compiled in (-DDPGEN_TRACE).
inline constexpr bool kTraceCompiled = DPGEN_TRACE != 0;

/// The span taxonomy (docs/observability.md).  Every phase of the node
/// driver's while-loop, the comm layer and the setup path has one entry.
enum class Phase : std::uint8_t {
  kTileExecute = 0,  ///< the tile's loop nest (one span per executed tile)
  kUnpack,           ///< stored edges -> fresh tile buffer ghost cells
  kPack,             ///< boundary slab -> packed edge payload
  kSend,             ///< routing one remote edge (encode + try_send loop)
  kBlockedSend,      ///< waiting for a full destination mailbox
  kPoll,             ///< draining this rank's mailbox
  kIdle,             ///< no ready tile: poll/backoff stretch
  kBarrier,          ///< minimpi barrier wait
  kLoadBalance,      ///< ownership computation before the run
  kInitScan,         ///< initial-tile face scan
  kGather,           ///< end-of-run trace/metrics gather
  kPhaseCount
};

/// Stable lower-case name for exporters ("tile_execute", "idle", ...).
const char* phase_name(Phase p);

/// Inverse of phase_name (the analyzer re-ingests exported traces).
/// Returns false when `name` matches no phase.
bool phase_from_name(const std::string& name, Phase* out);

/// Tile coordinates beyond this many dimensions are dropped from spans
/// (the span stays; only the trailing coordinates are lost).
inline constexpr int kMaxSpanDims = 6;

namespace profdetail {

/// Sampling-profiler frame hooks (defined in profile.cpp; declared here so
/// ScopedSpan can maintain the per-thread phase stack without trace.hpp
/// depending on the profiler).  While a Profiler run is active every
/// ScopedSpan pushes its phase onto a thread-local stack encoded in one
/// atomic word; the profiler's signal handler reads that word to attribute
/// each sample — no unwinder, no allocation, one relaxed store per span.
extern std::atomic<bool> g_frames_on;
void push_frame(Phase p);
void pop_frame();

inline bool frames_on() {
  return g_frames_on.load(std::memory_order_relaxed);
}

}  // namespace profdetail

/// One recorded interval.  Trivially copyable by design: rank buffers are
/// serialized with memcpy and shipped through minimpi::Comm::gather.
struct Span {
  std::int64_t start_ns = 0;  ///< now_ns() at the start
  std::int64_t end_ns = 0;
  std::array<std::int32_t, kMaxSpanDims> coord{};  ///< tile coordinates
  std::int16_t rank = -1;    ///< -1: outside any rank (setup phases)
  std::int16_t thread = 0;   ///< worker id within the rank
  Phase phase = Phase::kTileExecute;
  std::uint8_t ncoord = 0;   ///< how many of `coord` are meaningful
};

static_assert(std::is_trivially_copyable_v<Span>, "Span is wire format");

/// Steady-clock nanoseconds since the process-wide trace epoch (the
/// first call).  Spans, message stamps and the transport's admission
/// stamps all share this clock, so they line up on one timeline.
std::int64_t now_ns();

struct MsgRecord;
class Session;
template <typename T>
class RecordRing;

namespace detail {

/// Where the calling thread's records go and the identity they carry.
/// Set and restored by obs::ThreadBinding (obs/session.hpp); null rings
/// mean "not recording".
struct ThreadRecorders {
  Session* session = nullptr;
  RecordRing<Span>* spans = nullptr;
  RecordRing<MsgRecord>* msgs = nullptr;
  std::int16_t rank = -1;  ///< -1: outside any rank (setup phases)
  std::int16_t thread = 0;
};

inline constinit thread_local ThreadRecorders t_recorders{};

}  // namespace detail

/// True when the calling thread is bound to a tracing Session.
inline bool tracing() {
  return kTraceCompiled && detail::t_recorders.spans != nullptr;
}

/// Records a span for the calling thread (its bound identity applied);
/// a no-op on a thread that is not tracing.
void record_span(Phase phase, std::int64_t start_ns, std::int64_t end_ns,
                 const IntVec* tile = nullptr);

/// RAII span: records [construction, destruction) when the thread is
/// tracing.
/// With DPGEN_TRACE=0 the whole class compiles to an empty object.
class ScopedSpan {
 public:
#if DPGEN_TRACE
  explicit ScopedSpan(Phase phase, const IntVec* tile = nullptr)
      : phase_(phase), tile_(tile) {
    if (tracing()) start_ns_ = now_ns();
    if (profdetail::frames_on()) {
      profdetail::push_frame(phase);
      pushed_ = true;
    }
  }
  ~ScopedSpan() {
    close();
    // The frame outlives close(): samples taken between an early close()
    // and destruction still belong to this phase.
    if (pushed_) profdetail::pop_frame();
  }

  /// Ends the span early (idempotent).
  void close() {
    if (start_ns_ < 0) return;
    record_span(phase_, start_ns_, now_ns(), tile_);
    start_ns_ = -1;
  }

 private:
  Phase phase_;
  const IntVec* tile_;
  std::int64_t start_ns_ = -1;
  bool pushed_ = false;
#else
  explicit ScopedSpan(Phase, const IntVec* = nullptr) {}
  void close() {}
#endif

 public:
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

}  // namespace dpgen::obs
