#include "obs/export.hpp"

#include <algorithm>
#include <fstream>
#include <set>

#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::obs {

namespace {

/// Microsecond timestamp with nanosecond precision (trace-event "ts").
/// Timestamps are steady-clock offsets from the trace epoch, never
/// negative; anything else is clamped to zero.
std::string us_from_ns(std::int64_t ns) {
  if (ns < 0) ns = 0;
  std::string out = cat(ns / 1000);
  std::int64_t frac = ns % 1000;
  if (frac == 0) return out;
  std::string f = cat(frac);
  return cat(out, ".", std::string(3 - f.size(), '0'), f);
}

std::string tile_string(const Span& s) {
  std::string out = "(";
  for (int k = 0; k < s.ncoord; ++k)
    out += cat(k ? ", " : "", s.coord[static_cast<std::size_t>(k)]);
  return out + ")";
}

std::string track_name(int rank) {
  return rank < 0 ? std::string("setup") : cat("rank ", rank);
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans,
                              std::uint64_t dropped,
                              const std::vector<MsgRecord>& msgs) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    out += cat(first ? "" : ",\n", event);
    first = false;
  };

  // Metadata: name every rank's process track and every thread track.
  std::set<int> ranks;
  std::set<std::pair<int, int>> threads;
  for (const Span& s : spans) {
    ranks.insert(s.rank);
    threads.insert({s.rank, s.thread});
  }
  for (const MsgRecord& m : msgs) {
    // Flow endpoints need their tracks named even when span collection
    // missed the thread (ring overflow).
    ranks.insert(m.src);
    ranks.insert(m.dst);
    threads.insert({m.src, m.src_thread});
    threads.insert({m.dst, m.dst_thread});
  }
  for (int r : ranks)
    emit(cat("{\"ph\":\"M\",\"pid\":", r,
             ",\"name\":\"process_name\",\"args\":{\"name\":\"",
             track_name(r), "\"}}"));
  for (auto [r, t] : threads)
    emit(cat("{\"ph\":\"M\",\"pid\":", r, ",\"tid\":", t,
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker ", t,
             "\"}}"));

  for (const Span& s : spans) {
    std::string args;
    if (s.ncoord > 0) args = cat(",\"tile\":\"", tile_string(s), "\"");
    std::string name = phase_name(s.phase);
    if (s.phase == Phase::kTileExecute && s.ncoord > 0)
      name = cat(name, " ", tile_string(s));
    emit(cat("{\"ph\":\"X\",\"pid\":", s.rank, ",\"tid\":", s.thread,
             ",\"ts\":", us_from_ns(s.start_ns),
             ",\"dur\":", us_from_ns(std::max<std::int64_t>(
                              0, s.end_ns - s.start_ns)),
             ",\"name\":\"", name, "\",\"cat\":\"", phase_name(s.phase),
             "\",\"args\":{\"phase\":\"", phase_name(s.phase), "\"", args,
             "}}"));
  }
  // Flow events: one "s"/"f" pair per message, identified by the per-link
  // sequence number.  The start binds to the sender's enclosing send span
  // at send time; "bp":"e" makes the finish bind to the receiver's
  // enclosing span at dispatch time rather than the next slice.
  for (const MsgRecord& m : msgs) {
    const std::string id = cat(m.src, ":", m.dst, ":", m.seq);
    emit(cat("{\"ph\":\"s\",\"cat\":\"msg\",\"name\":\"msg\",\"id\":\"", id,
             "\",\"pid\":", m.src, ",\"tid\":", m.src_thread,
             ",\"ts\":", us_from_ns(m.send_ns), "}"));
    emit(cat("{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"msg\",\"name\":\"msg\","
             "\"id\":\"", id, "\",\"pid\":", m.dst, ",\"tid\":",
             m.dst_thread, ",\"ts\":", us_from_ns(m.dispatch_ns), "}"));
  }

  out += cat("\n],\"displayTimeUnit\":\"ms\",\"metadata\":{\"spans_dropped\":",
             dropped, "}}\n");
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::uint64_t dropped,
                        const std::vector<MsgRecord>& msgs) {
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), cat("cannot open trace output '", path, "'"));
  out << chrome_trace_json(spans, dropped, msgs);
  DPGEN_CHECK(out.good(), cat("error writing trace '", path, "'"));
}

void write_metrics_json(const std::string& path,
                        const MetricsRegistry& registry) {
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), cat("cannot open metrics output '", path, "'"));
  out << registry.to_json();
  DPGEN_CHECK(out.good(), cat("error writing metrics '", path, "'"));
}

}  // namespace dpgen::obs
