#include "obs/session.hpp"

#include <algorithm>

namespace dpgen::obs {

template <typename T>
RingSet<T>::RingSet(bool on, std::size_t capacity)
    : on_(on && kTraceCompiled), capacity_(capacity) {}

template <typename T>
RecordRing<T>* RingSet<T>::add_ring() {
  if (!on_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<RecordRing<T>>(capacity_));
  return rings_.back().get();
}

template <typename T>
std::vector<T> RingSet<T>::collect_rank(int rank) const {
  std::vector<T> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) ring->collect_rank(rank, &out);
  }
  std::sort(out.begin(), out.end(), [](const T& a, const T& b) {
    return record_time(a) < record_time(b);
  });
  return out;
}

template <typename T>
std::uint64_t RingSet<T>::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

template <typename T>
std::vector<T> RingSet<T>::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merged_;
}

template <typename T>
void RingSet<T>::add_merged(const std::vector<T>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  merged_.insert(merged_.end(), records.begin(), records.end());
}

template <typename T>
void RingSet<T>::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) ring->clear();
  merged_.clear();
}

template class RingSet<Span>;
template class RingSet<MsgRecord>;

Session::Session(bool trace, bool msgtrace,
                 std::optional<ProfileOptions> profile)
    : spans_(trace, kSpanRingCapacity), msgs_(msgtrace, kMsgRingCapacity) {
  if (profile) {
    Profiler::instance().start(*profile);
    profiling_ = true;
  }
}

Session::~Session() {
  if (profiling_ && Profiler::instance().active())
    (void)Profiler::instance().stop();
}

ProfileDoc Session::stop_profiler() { return Profiler::instance().stop(); }

ThreadBinding::ThreadBinding(Session* session, int rank, int thread)
    : prev_(detail::t_recorders) {
  detail::ThreadRecorders& rec = detail::t_recorders;
  if (session != prev_.session) {
    rec.session = session;
    rec.spans = session ? session->spans().add_ring() : nullptr;
    rec.msgs = session ? session->msgs().add_ring() : nullptr;
  }
  rec.rank = static_cast<std::int16_t>(rank);
  rec.thread = static_cast<std::int16_t>(thread);
}

}  // namespace dpgen::obs
