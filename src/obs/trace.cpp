#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

#include "obs/session.hpp"

namespace dpgen::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kTileExecute: return "tile_execute";
    case Phase::kUnpack: return "unpack";
    case Phase::kPack: return "pack";
    case Phase::kSend: return "send";
    case Phase::kBlockedSend: return "blocked_send";
    case Phase::kPoll: return "poll";
    case Phase::kIdle: return "idle";
    case Phase::kBarrier: return "barrier";
    case Phase::kLoadBalance: return "load_balance";
    case Phase::kInitScan: return "init_scan";
    case Phase::kGather: return "gather";
    case Phase::kPhaseCount: break;
  }
  return "unknown";
}

bool phase_from_name(const std::string& name, Phase* out) {
  for (int p = 0; p < static_cast<int>(Phase::kPhaseCount); ++p) {
    if (name == phase_name(static_cast<Phase>(p))) {
      *out = static_cast<Phase>(p);
      return true;
    }
  }
  return false;
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void record_span(Phase phase, std::int64_t start_ns, std::int64_t end_ns,
                 const IntVec* tile) {
  const detail::ThreadRecorders& rec = detail::t_recorders;
  if (!rec.spans) return;
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.phase = phase;
  s.rank = rec.rank;
  s.thread = rec.thread;
  if (tile) {
    s.ncoord = static_cast<std::uint8_t>(
        std::min<std::size_t>(tile->size(), kMaxSpanDims));
    for (std::size_t k = 0; k < s.ncoord; ++k)
      s.coord[k] = static_cast<std::int32_t>((*tile)[k]);
  }
  rec.spans->push(s);
}

}  // namespace dpgen::obs
