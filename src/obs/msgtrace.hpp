#pragma once
// Causal message tracing: per-message lifecycle records.
//
// Every data-plane minimpi message carries a compact envelope (sequence
// number + monotonic stamps; see minimpi::MsgEnvelope) that the transport
// and the node driver fill in as the message moves: pack, hand-off to the
// transport, mailbox admission, delivery by the receiver's poll, payload
// unpack, and finally the dispatch of the dependent tile.  The receiver
// completes the envelope into one MsgRecord and appends it to the calling
// thread's message ring in the run's obs::Session — the same single-writer
// RecordRing the spans use — and the records ride the same end-of-run
// gather (obs/gather.hpp) to rank 0.
//
// Envelope-only by construction: payload bytes and the computed RESULT
// stay byte-identical whether tracing is on or off.
//
// Consumers (obs/analysis.hpp, dpgen-analyze):
//   * the measured message-granularity critical path, cross-checked
//     against the span-inferred path;
//   * the per-link queueing-delay decomposition (pack / sender-blocked /
//     queue residency / unpack wait / dispatch lag) — integer nanoseconds
//     that sum *exactly* to the end-to-end message latency;
//   * Perfetto flow events linking sender send spans to receiver dispatch
//     spans (obs/export.hpp);
//   * the dpgen.msgtrace.v1 document with per-link send/delivery
//     conservation accounting (fault-injected drops and duplicates are
//     expected gaps/repeats, not errors).
//
// Cost model matches the spans: -DDPGEN_TRACE=0 compiles recording out; a
// thread without a message ring costs one thread-local load per site.

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "support/vec.hpp"

namespace dpgen::obs {

/// One completed message lifecycle.  Trivially copyable by design: rings
/// are serialized with memcpy and shipped through minimpi::Comm::gather.
/// All stamps are obs::now_ns() values, so they are directly comparable
/// with Span start/end times.
struct MsgRecord {
  std::int64_t seq = -1;         ///< per-link sequence number (src -> dst)
  std::int64_t pack_ns = 0;      ///< sender: edge pack started
  std::int64_t send_ns = 0;      ///< sender: handed to the transport
  std::int64_t admit_ns = 0;     ///< transport: admitted to dst's mailbox
  std::int64_t deliver_ns = 0;   ///< receiver: popped by poll
  std::int64_t unpack_ns = 0;    ///< receiver: payload unpacked
  std::int64_t dispatch_ns = 0;  ///< receiver: dependent tile dispatched
  std::int64_t bytes = 0;        ///< wire payload size
  std::array<std::int32_t, kMaxSpanDims> consumer{};  ///< dependent tile
  std::int16_t src = -1;
  std::int16_t dst = -1;
  std::int16_t src_thread = 0;
  std::int16_t dst_thread = 0;
  std::int16_t edge = -1;        ///< tile-dependency offset index
  std::uint8_t ncoord = 0;       ///< meaningful entries of `consumer`
};

static_assert(std::is_trivially_copyable_v<MsgRecord>,
              "MsgRecord is wire format");

/// Queueing-delay decomposition totals in integer nanoseconds.  The five
/// buckets partition [pack_ns, dispatch_ns) of each record, so
/// total() == sum of end-to-end latencies exactly (the conservation
/// invariant dpgen-analyze --msgtrace verifies).
struct MsgQueueing {
  std::int64_t pack_ns = 0;            ///< pack -> send: encode time
  std::int64_t sender_blocked_ns = 0;  ///< send -> admit: backpressure
  std::int64_t queue_ns = 0;           ///< admit -> deliver: mailbox stay
  std::int64_t unpack_wait_ns = 0;     ///< deliver -> unpack: poll-to-use
  std::int64_t dispatch_ns = 0;        ///< unpack -> dispatch: launch lag
  std::int64_t total() const {
    return pack_ns + sender_blocked_ns + queue_ns + unpack_wait_ns +
           dispatch_ns;
  }
  MsgQueueing& operator+=(const MsgQueueing& o) {
    pack_ns += o.pack_ns;
    sender_blocked_ns += o.sender_blocked_ns;
    queue_ns += o.queue_ns;
    unpack_wait_ns += o.unpack_wait_ns;
    dispatch_ns += o.dispatch_ns;
    return *this;
  }
};

/// Decomposition of one record (clamped to non-negative segments; the
/// stamps are taken in lifecycle order on one steady clock, so negative
/// segments indicate a malformed record and are truncated to zero).
MsgQueueing decompose(const MsgRecord& r);

/// Aggregate decomposition over a record set.
MsgQueueing decompose(const std::vector<MsgRecord>& records);

/// True when the calling thread is bound to a message-tracing Session.
inline bool msg_tracing() {
  return kTraceCompiled && detail::t_recorders.msgs != nullptr;
}

/// Appends a completed record to the calling thread's message ring; a
/// no-op on a thread that is not message-tracing.
void record_msg(const MsgRecord& r);

// ---- dpgen.msgtrace.v1 document -----------------------------------------

/// Everything the msgtrace document needs.  Plain matrices (not minimpi
/// types) so the simulator and generated programs can fill it too.
struct MsgTraceInput {
  std::vector<MsgRecord> records;
  int nranks = 0;
  /// Per-link data-plane sends, [source][destination]: how many sequence
  /// numbers each sender assigned (minimpi::World::sent_matrix, or the
  /// simulator's per-link message counts).
  std::vector<std::vector<std::uint64_t>> sent_matrix;
  std::uint64_t records_dropped = 0;  ///< ring-overflow losses
  long long expected_drops = 0;       ///< FaultStats::messages_dropped
  long long expected_dups = 0;        ///< FaultStats::messages_duplicated
  /// Duplicate edges the tile tables screened out (dup faults surface
  /// here, not as extra records).
  long long table_duplicates = 0;
  std::string source = "engine";
  std::string problem;
  IntVec params;
  /// Records above this count are dropped from the document's `records`
  /// array (aggregates still cover everything).  0 = keep all.
  std::size_t max_records = 20000;
};

/// Renders the dpgen.msgtrace.v1 JSON document: run metadata, aggregate +
/// per-link queueing decomposition, per-link conservation accounting and
/// the (possibly truncated) record array.
std::string msgtrace_json(const MsgTraceInput& input);

/// msgtrace_json to a file; throws dpgen::Error on I/O failure.
void write_msgtrace_json(const std::string& path, const MsgTraceInput& input);

}  // namespace dpgen::obs
