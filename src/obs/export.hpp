#pragma once
// Trace / metrics exporters.
//
// chrome_trace_json renders spans in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// one complete ("ph":"X") event per span, pid = rank, tid = thread, so
// Perfetto / chrome://tracing shows one track per rank x thread.  The
// cluster simulator's schedule goes through the same Span type, so
// simulated and real timelines open side by side in one viewer.

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/msgtrace.hpp"
#include "obs/trace.hpp"

namespace dpgen::obs {

/// Renders spans as a Chrome trace-event JSON document.  `dropped` counts
/// the spans the run's rings overwrote; it is surfaced in the document's
/// "metadata" object ("spans_dropped") so a reader — human or the
/// analyzer — knows when ring-buffer overflow truncated the timeline.
/// When `msgs` is non-empty each message record also emits a Perfetto
/// flow pair: "s" on the sender's track at send time, "f" on the
/// receiver's track at dispatch time, so the viewer draws an arrow from
/// the producing send span to the consuming dispatch.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              std::uint64_t dropped = 0,
                              const std::vector<MsgRecord>& msgs = {});

/// Writes chrome_trace_json(spans, dropped, msgs) to `path` (throws
/// dpgen::Error on I/O failure).
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::uint64_t dropped = 0,
                        const std::vector<MsgRecord>& msgs = {});

/// Writes the registry's JSON dump to `path`.
void write_metrics_json(const std::string& path,
                        const MetricsRegistry& registry);

}  // namespace dpgen::obs
