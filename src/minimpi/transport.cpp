#include "minimpi/transport.hpp"

#include "obs/trace.hpp"
#include "support/str.hpp"

namespace dpgen::minimpi {

std::string Transport::failure_reason() const {
  auto state = failure_state();
  std::lock_guard<std::mutex> lock(state->mu);
  return state->reason;
}

void Transport::fail(const std::string& reason) {
  auto state = failure_state();
  std::vector<std::function<void()>> listeners;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->failed.load(std::memory_order_relaxed)) return;
    state->reason = reason;
    state->failed.store(true, std::memory_order_release);
    listeners = state->listeners;
  }
  // Listeners run outside the state lock: they take their own locks (the
  // mailbox mutexes, World's barrier mutex) to publish the wakeup.
  for (auto& fn : listeners) fn();
}

void Transport::check_alive() const {
  if (failed())
    throw TransportFailure(cat("transport failed: ", failure_reason()));
}

void Transport::add_failure_listener(std::function<void()> fn) {
  auto state = failure_state();
  std::lock_guard<std::mutex> lock(state->mu);
  state->listeners.push_back(std::move(fn));
}

InProcessTransport::InProcessTransport(int nranks,
                                       std::size_t mailbox_capacity)
    : capacity_(mailbox_capacity) {
  DPGEN_CHECK(nranks >= 1, "transport needs at least one rank");
  for (int r = 0; r < nranks; ++r)
    boxes_.push_back(std::make_unique<Mailbox>());
  // Wake every parked sender and receiver when the stack is poisoned; the
  // wait predicates below re-check failed() and throw.
  add_failure_listener([this] {
    for (auto& b : boxes_) {
      std::lock_guard<std::mutex> lock(b->mu);
      b->not_empty.notify_all();
      b->not_full.notify_all();
    }
  });
}

PostResult InProcessTransport::try_post(int src, int dst, Message& m) {
  (void)src;
  check_alive();
  Mailbox& b = box(dst);
  {
    std::lock_guard<std::mutex> lock(b.mu);
    if (capacity_ > 0 && b.queue.size() >= capacity_)
      return PostResult::kFull;
    if (m.env.seq >= 0) m.env.admit_ns = obs::now_ns();
    b.queue.push_back(std::move(m));
  }
  b.not_empty.notify_one();
  return PostResult::kDelivered;
}

std::size_t InProcessTransport::depth(int rank) const {
  Mailbox& b = box(rank);
  std::lock_guard<std::mutex> lock(b.mu);
  return b.queue.size();
}

bool InProcessTransport::would_block(int dst) const {
  if (capacity_ == 0) return false;
  Mailbox& b = box(dst);
  std::lock_guard<std::mutex> lock(b.mu);
  return b.queue.size() >= capacity_;
}

void InProcessTransport::wait_capacity(int src, int dst) {
  (void)src;
  Mailbox& b = box(dst);
  std::unique_lock<std::mutex> lock(b.mu);
  b.not_full.wait(lock, [&] {
    return failed() || capacity_ == 0 || b.queue.size() < capacity_;
  });
  check_alive();
}

bool InProcessTransport::probe(int rank, int* src, int* tag) {
  check_alive();
  Mailbox& b = box(rank);
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.queue.empty()) return false;
  if (src) *src = b.queue.front().source;
  if (tag) *tag = b.queue.front().tag;
  return true;
}

std::optional<Message> InProcessTransport::collect(int rank) {
  check_alive();
  Mailbox& b = box(rank);
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.queue.empty()) return std::nullopt;
  Message m = std::move(b.queue.front());
  b.queue.pop_front();
  b.not_full.notify_one();
  return m;
}

Message InProcessTransport::collect_blocking(int rank) {
  Mailbox& b = box(rank);
  std::unique_lock<std::mutex> lock(b.mu);
  b.not_empty.wait(lock, [&] { return failed() || !b.queue.empty(); });
  check_alive();
  Message m = std::move(b.queue.front());
  b.queue.pop_front();
  b.not_full.notify_one();
  return m;
}

std::optional<Message> InProcessTransport::collect_match(int rank, int src,
                                                         int tag) {
  check_alive();
  Mailbox& b = box(rank);
  std::lock_guard<std::mutex> lock(b.mu);
  for (auto it = b.queue.begin(); it != b.queue.end(); ++it) {
    if ((src >= 0 && it->source != src) || (tag >= 0 && it->tag != tag))
      continue;
    Message m = std::move(*it);
    b.queue.erase(it);
    b.not_full.notify_one();
    return m;
  }
  return std::nullopt;
}

void InProcessTransport::force_post(int dst, Message&& m) {
  Mailbox& b = box(dst);
  {
    std::lock_guard<std::mutex> lock(b.mu);
    // Delayed / duplicated reinjections admit now, not when first posted.
    if (m.env.seq >= 0) m.env.admit_ns = obs::now_ns();
    b.queue.push_back(std::move(m));
  }
  b.not_empty.notify_one();
}

}  // namespace dpgen::minimpi
