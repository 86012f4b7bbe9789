// Per-message lifecycle records: recording, queueing decomposition and the
// dpgen.msgtrace.v1 document.  See msgtrace.hpp for the design rationale.

#include "obs/msgtrace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_set>
#include <utility>

#include "obs/session.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

namespace dpgen::obs {

MsgQueueing decompose(const MsgRecord& r) {
  auto seg = [](std::int64_t from, std::int64_t to) {
    return to > from ? to - from : 0;
  };
  MsgQueueing q;
  q.pack_ns = seg(r.pack_ns, r.send_ns);
  q.sender_blocked_ns = seg(r.send_ns, r.admit_ns);
  q.queue_ns = seg(r.admit_ns, r.deliver_ns);
  q.unpack_wait_ns = seg(r.deliver_ns, r.unpack_ns);
  q.dispatch_ns = seg(r.unpack_ns, r.dispatch_ns);
  return q;
}

MsgQueueing decompose(const std::vector<MsgRecord>& records) {
  MsgQueueing total;
  for (const MsgRecord& r : records) total += decompose(r);
  return total;
}

void record_msg(const MsgRecord& r) {
  if (RecordRing<MsgRecord>* ring = detail::t_recorders.msgs) ring->push(r);
}

// ---- dpgen.msgtrace.v1 ---------------------------------------------------

namespace {

void write_queueing(json::Writer* w, const MsgQueueing& q) {
  w->begin_object();
  w->key("pack").value(static_cast<long long>(q.pack_ns));
  w->key("sender_blocked").value(static_cast<long long>(q.sender_blocked_ns));
  w->key("queue").value(static_cast<long long>(q.queue_ns));
  w->key("unpack_wait").value(static_cast<long long>(q.unpack_wait_ns));
  w->key("dispatch").value(static_cast<long long>(q.dispatch_ns));
  w->key("end_to_end").value(static_cast<long long>(q.total()));
  w->end_object();
}

struct LinkAgg {
  std::uint64_t delivered = 0;  ///< records seen (repeats included)
  std::uint64_t unique = 0;     ///< distinct sequence numbers
  MsgQueueing queueing;
  std::unordered_set<std::int64_t> seqs;
};

}  // namespace

std::string msgtrace_json(const MsgTraceInput& input) {
  std::map<std::pair<int, int>, LinkAgg> links;
  for (const MsgRecord& r : input.records) {
    LinkAgg& agg = links[{r.src, r.dst}];
    ++agg.delivered;
    if (agg.seqs.insert(r.seq).second) ++agg.unique;
    agg.queueing += decompose(r);
  }
  // Links that sent but delivered nothing still need a row (a fully
  // dropped link is exactly what the conservation check must see).
  for (std::size_t s = 0; s < input.sent_matrix.size(); ++s)
    for (std::size_t d = 0; d < input.sent_matrix[s].size(); ++d)
      if (input.sent_matrix[s][d] > 0)
        links[{static_cast<int>(s), static_cast<int>(d)}];

  std::uint64_t total_sent = 0, total_delivered = 0, total_repeats = 0,
                total_gaps = 0;
  json::Writer w;
  w.begin_object();
  w.key("schema").value("dpgen.msgtrace.v1");
  w.key("source").value(input.source);
  w.key("problem").value(input.problem);
  w.key("params").begin_array();
  for (Int p : input.params) w.value(static_cast<long long>(p));
  w.end_array();
  w.key("nranks").value(input.nranks);
  w.key("messages").value(static_cast<long long>(input.records.size()));
  w.key("records_dropped")
      .value(static_cast<long long>(input.records_dropped));
  w.key("expected_drops").value(input.expected_drops);
  w.key("expected_dups").value(input.expected_dups);
  w.key("table_duplicates").value(input.table_duplicates);
  w.key("queueing_ns");
  write_queueing(&w, decompose(input.records));

  w.key("links").begin_array();
  for (const auto& [key, agg] : links) {
    const auto [src, dst] = key;
    std::uint64_t sent = 0;
    if (src >= 0 && static_cast<std::size_t>(src) < input.sent_matrix.size() &&
        dst >= 0 &&
        static_cast<std::size_t>(dst) < input.sent_matrix[src].size())
      sent = input.sent_matrix[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(dst)];
    const std::uint64_t repeats = agg.delivered - agg.unique;
    const std::uint64_t gaps = sent > agg.unique ? sent - agg.unique : 0;
    total_sent += sent;
    total_delivered += agg.unique;
    total_repeats += repeats;
    total_gaps += gaps;
    w.begin_object();
    w.key("src").value(src);
    w.key("dst").value(dst);
    w.key("sent").value(static_cast<long long>(sent));
    w.key("delivered").value(static_cast<long long>(agg.unique));
    w.key("repeats").value(static_cast<long long>(repeats));
    w.key("gaps").value(static_cast<long long>(gaps));
    w.key("queueing_ns");
    write_queueing(&w, agg.queueing);
    w.end_object();
  }
  w.end_array();

  // Conservation: every assigned sequence number is either delivered, an
  // expected fault-plan drop, or lost to a ring overflow.  Anything left
  // is unexplained loss, which dpgen-analyze --msgtrace rejects.
  const std::uint64_t explained =
      static_cast<std::uint64_t>(
          input.expected_drops < 0 ? 0 : input.expected_drops) +
      input.records_dropped;
  const std::uint64_t unexplained =
      total_gaps > explained ? total_gaps - explained : 0;
  w.key("conservation").begin_object();
  w.key("total_sent").value(static_cast<long long>(total_sent));
  w.key("total_delivered").value(static_cast<long long>(total_delivered));
  w.key("total_gaps").value(static_cast<long long>(total_gaps));
  w.key("total_repeats").value(static_cast<long long>(total_repeats));
  w.key("unexplained_loss").value(static_cast<long long>(unexplained));
  w.key("accounted")
      .value(unexplained == 0 &&
             total_repeats <= static_cast<std::uint64_t>(
                                  input.expected_dups < 0
                                      ? 0
                                      : input.expected_dups));
  w.end_object();

  const std::size_t keep =
      input.max_records == 0
          ? input.records.size()
          : std::min(input.records.size(), input.max_records);
  w.key("records_truncated")
      .value(static_cast<long long>(input.records.size() - keep));
  w.key("records").begin_array();
  for (std::size_t i = 0; i < keep; ++i) {
    const MsgRecord& r = input.records[i];
    w.begin_object();
    w.key("seq").value(static_cast<long long>(r.seq));
    w.key("src").value(r.src);
    w.key("dst").value(r.dst);
    w.key("src_thread").value(r.src_thread);
    w.key("dst_thread").value(r.dst_thread);
    w.key("edge").value(r.edge);
    w.key("bytes").value(static_cast<long long>(r.bytes));
    w.key("consumer").begin_array();
    for (std::uint8_t k = 0; k < r.ncoord; ++k)
      w.value(r.consumer[k]);
    w.end_array();
    w.key("pack_ns").value(static_cast<long long>(r.pack_ns));
    w.key("send_ns").value(static_cast<long long>(r.send_ns));
    w.key("admit_ns").value(static_cast<long long>(r.admit_ns));
    w.key("deliver_ns").value(static_cast<long long>(r.deliver_ns));
    w.key("unpack_ns").value(static_cast<long long>(r.unpack_ns));
    w.key("dispatch_ns").value(static_cast<long long>(r.dispatch_ns));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void write_msgtrace_json(const std::string& path,
                         const MsgTraceInput& input) {
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), cat("cannot open msgtrace file '", path, "'"));
  out << msgtrace_json(input) << '\n';
  DPGEN_CHECK(out.good(), cat("error writing msgtrace file '", path, "'"));
}

}  // namespace dpgen::obs
