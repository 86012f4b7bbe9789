#include "minimpi/world.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::minimpi {

World::World(int nranks, std::size_t mailbox_capacity,
             std::shared_ptr<Transport> transport,
             obs::MetricsRegistry* metrics)
    : transport_(std::move(transport)), metrics_(metrics) {
  DPGEN_CHECK(nranks >= 1, "world needs at least one rank");
  if (!transport_)
    transport_ =
        std::make_shared<InProcessTransport>(nranks, mailbox_capacity);
  DPGEN_CHECK(transport_->nranks() == nranks,
              cat("world of ", nranks, " ranks over a transport of ",
                  transport_->nranks()));
  // When the transport is poisoned, ranks parked in a collective must wake
  // up and throw too — the wait predicates re-check transport_->failed().
  transport_->add_failure_listener([this] {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    barrier_cv_.notify_all();
  });
  // Registry instruments are shared by every source rank, so resolve each
  // handle once and hand it to all Comms (the send path only touches
  // atomics).
  std::vector<obs::Counter*> peer_messages(static_cast<std::size_t>(nranks)),
      peer_bytes(static_cast<std::size_t>(nranks));
  if (metrics) {
    instruments_ = {&metrics->counter("comm.messages_sent"),
                    &metrics->counter("comm.bytes_sent"),
                    &metrics->histogram("comm.message_bytes")};
    for (std::size_t r = 0; r < peer_messages.size(); ++r) {
      peer_messages[r] = &metrics->counter(cat("comm.messages_sent.to", r));
      peer_bytes[r] = &metrics->counter(cat("comm.bytes_sent.to", r));
    }
  }
  for (int r = 0; r < nranks; ++r) {
    comms_.push_back(std::unique_ptr<Comm>(new Comm()));
    comms_.back()->world_ = this;
    comms_.back()->rank_ = r;
    comms_.back()->peers_ =
        std::vector<Comm::PeerStats>(static_cast<std::size_t>(nranks));
    for (int dst = 0; dst < nranks; ++dst) {
      auto& peer = comms_.back()->peers_[static_cast<std::size_t>(dst)];
      peer.messages_counter = peer_messages[static_cast<std::size_t>(dst)];
      peer.bytes_counter = peer_bytes[static_cast<std::size_t>(dst)];
    }
  }
}

std::vector<std::vector<std::uint64_t>> World::bytes_matrix() const {
  std::vector<std::vector<std::uint64_t>> m(comms_.size());
  for (std::size_t src = 0; src < comms_.size(); ++src)
    for (std::size_t dst = 0; dst < comms_.size(); ++dst)
      m[src].push_back(comms_[src]->bytes_sent_to(static_cast<int>(dst)));
  return m;
}

std::vector<std::vector<std::uint64_t>> World::messages_matrix() const {
  std::vector<std::vector<std::uint64_t>> m(comms_.size());
  for (std::size_t src = 0; src < comms_.size(); ++src)
    for (std::size_t dst = 0; dst < comms_.size(); ++dst)
      m[src].push_back(comms_[src]->messages_sent_to(static_cast<int>(dst)));
  return m;
}

std::vector<std::vector<std::uint64_t>> World::sent_matrix() const {
  std::vector<std::vector<std::uint64_t>> m(comms_.size());
  for (std::size_t src = 0; src < comms_.size(); ++src)
    for (std::size_t dst = 0; dst < comms_.size(); ++dst)
      m[src].push_back(comms_[src]->peers_[dst].data_seq.load(
          std::memory_order_relaxed));
  return m;
}

int Comm::size() const { return world_->size(); }

Transport& Comm::transport() { return *world_->transport_; }

void Comm::count_send(int dst, std::size_t bytes) {
  ++messages_sent_;
  bytes_sent_ += bytes;
  auto& peer = peers_[static_cast<std::size_t>(dst)];
  peer.messages.fetch_add(1, std::memory_order_relaxed);
  peer.bytes.fetch_add(bytes, std::memory_order_relaxed);
  const World::Instruments& in = world_->instruments_;
  if (!in.messages) return;
  in.messages->increment();
  in.bytes->add(static_cast<std::int64_t>(bytes));
  peer.messages_counter->increment();
  peer.bytes_counter->add(static_cast<std::int64_t>(bytes));
  in.message_bytes->observe(static_cast<std::int64_t>(bytes));
}

void Comm::count_blocked() {
  ++blocked_sends_;
  // Looked up by name (off the hot path: the sender is backing off), so
  // the counter appears only in the documents of runs that blocked.
  if (obs::MetricsRegistry* reg = world_->metrics_)
    reg->counter("comm.blocked_sends").increment();
}

void Comm::send_impl(int dst, int tag, std::vector<std::uint8_t>&& payload) {
  const std::size_t bytes = payload.size();
  Message m;
  m.source = rank_;
  m.tag = tag;
  m.payload = std::move(payload);
  Transport& t = transport();
  if (t.try_post(rank_, dst, m) == PostResult::kFull) {
    count_blocked();
    obs::ScopedSpan span(obs::Phase::kBlockedSend);
    do {
      t.wait_capacity(rank_, dst);
    } while (t.try_post(rank_, dst, m) == PostResult::kFull);
  }
  count_send(dst, bytes);
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  DPGEN_CHECK(dst >= 0 && dst < size(), cat("send to invalid rank ", dst));
  const auto* p = static_cast<const std::uint8_t*>(data);
  send_impl(dst, tag, std::vector<std::uint8_t>(p, p + bytes));
}

void Comm::send(int dst, int tag, std::vector<std::uint8_t>&& payload) {
  DPGEN_CHECK(dst >= 0 && dst < size(), cat("send to invalid rank ", dst));
  send_impl(dst, tag, std::move(payload));
}

bool Comm::try_send(int dst, int tag, const void* data, std::size_t bytes) {
  DPGEN_CHECK(dst >= 0 && dst < size(), cat("send to invalid rank ", dst));
  Transport& t = transport();
  // The payload is copied only after the capacity hint passes, so a
  // polling retry loop does not pay for copies that would be thrown away.
  if (t.would_block(dst)) {
    t.check_alive();
    count_blocked();
    return false;
  }
  Message m;
  m.source = rank_;
  m.tag = tag;
  const auto* p = static_cast<const std::uint8_t*>(data);
  m.payload.assign(p, p + bytes);
  if (t.try_post(rank_, dst, m) == PostResult::kFull) {
    count_blocked();
    return false;
  }
  count_send(dst, bytes);
  return true;
}

bool Comm::try_send(int dst, int tag, std::vector<std::uint8_t>& payload,
                    const MsgEnvelope* env) {
  DPGEN_CHECK(dst >= 0 && dst < size(), cat("send to invalid rank ", dst));
  Transport& t = transport();
  const std::size_t bytes = payload.size();
  Message m;
  m.source = rank_;
  m.tag = tag;
  if (env) m.env = *env;
  m.payload = std::move(payload);
  if (t.try_post(rank_, dst, m) == PostResult::kFull) {
    payload = std::move(m.payload);  // untouched for the caller's retry
    count_blocked();
    return false;
  }
  count_send(dst, bytes);
  return true;
}

bool Comm::iprobe(int* src, int* tag) {
  return transport().probe(rank_, src, tag);
}

std::optional<Message> Comm::try_recv() { return transport().collect(rank_); }

std::size_t Comm::mailbox_depth() { return transport().depth(rank_); }

Message Comm::recv() { return transport().collect_blocking(rank_); }

std::optional<Message> Comm::try_recv_match(int source, int tag) {
  return transport().collect_match(rank_, source, tag);
}

void Comm::declare_failure(const std::string& reason) {
  transport().fail(cat("rank ", rank_, ": ", reason));
}

Request Comm::isend(int dst, int tag, const void* data, std::size_t bytes) {
  DPGEN_CHECK(dst >= 0 && dst < size(), cat("isend to invalid rank ", dst));
  Request r;
  r.comm_ = this;
  r.kind_ = Request::Kind::kSend;
  r.dst_ = dst;
  r.tag_ = tag;
  const auto* p = static_cast<const std::uint8_t*>(data);
  r.payload_.assign(p, p + bytes);
  r.test();  // attempt immediate delivery
  return r;
}

Request Comm::irecv(int source, int tag) {
  Request r;
  r.comm_ = this;
  r.kind_ = Request::Kind::kRecv;
  r.want_src_ = source;
  r.want_tag_ = tag;
  r.test();
  return r;
}

bool Request::test() {
  if (done_) return true;
  DPGEN_CHECK(kind_ != Kind::kInvalid, "test() on an empty Request");
  if (kind_ == Kind::kSend) {
    if (comm_->try_send(dst_, tag_, payload_.data(), payload_.size())) {
      payload_.clear();
      payload_.shrink_to_fit();
      done_ = true;
    }
  } else {
    if (auto m = comm_->try_recv_match(want_src_, want_tag_)) {
      received_ = std::move(*m);
      done_ = true;
    }
  }
  return done_;
}

void Request::wait() {
  while (!test()) std::this_thread::yield();
}

const Message& Request::message() const {
  DPGEN_CHECK(kind_ == Kind::kRecv && done_,
              "message() requires a completed receive request");
  return received_;
}

void Comm::barrier() {
  obs::ScopedSpan span(obs::Phase::kBarrier);
  Transport& t = transport();
  t.check_alive();
  std::unique_lock<std::mutex> lock(world_->barrier_mu_);
  std::uint64_t gen = world_->barrier_generation_;
  if (++world_->barrier_arrived_ == size()) {
    world_->barrier_arrived_ = 0;
    ++world_->barrier_generation_;
    world_->barrier_cv_.notify_all();
    return;
  }
  world_->barrier_cv_.wait(lock, [&] {
    return world_->barrier_generation_ != gen || t.failed();
  });
  if (world_->barrier_generation_ == gen) {
    --world_->barrier_arrived_;  // barrier abandoned; keep state consistent
    t.check_alive();
  }
}

Int Comm::allreduce_sum(Int value) {
  return world_->allreduce_round<Int>(value, false, world_->accum_int_,
                                      world_->result_int_);
}

double Comm::allreduce_sum(double value) {
  return world_->allreduce_round<double>(value, false, world_->accum_dbl_,
                                         world_->result_dbl_);
}

double Comm::allreduce_max(double value) {
  return world_->allreduce_round<double>(value, true, world_->accum_dbl_,
                                         world_->result_dbl_);
}

namespace {
/// Tag space reserved for collectives; user tags are nonnegative ints so
/// these cannot collide.
constexpr int kBcastTag = -101;
constexpr int kGatherTag = -102;
}  // namespace

void Comm::broadcast(int root, void* data, std::size_t bytes) {
  DPGEN_CHECK(root >= 0 && root < size(), "broadcast: invalid root");
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send(r, kBcastTag, data, bytes);
  } else {
    while (true) {
      if (auto m = try_recv_match(root, kBcastTag)) {
        DPGEN_CHECK(m->payload.size() == bytes,
                    "broadcast: payload size mismatch");
        std::memcpy(data, m->payload.data(), bytes);
        break;
      }
      std::this_thread::yield();
    }
  }
  barrier();
}

void Comm::gather(int root, const void* send_buf, std::size_t bytes,
                  std::vector<std::uint8_t>* out) {
  DPGEN_CHECK(root >= 0 && root < size(), "gather: invalid root");
  if (rank_ == root) {
    DPGEN_CHECK(out != nullptr, "gather: root needs an output buffer");
    out->assign(static_cast<std::size_t>(size()) * bytes, 0);
    const auto* self = static_cast<const std::uint8_t*>(send_buf);
    std::copy(self, self + bytes,
              out->begin() +
                  static_cast<std::ptrdiff_t>(
                      static_cast<std::size_t>(rank_) * bytes));
    for (int received = 0; received < size() - 1;) {
      if (auto m = try_recv_match(-1, kGatherTag)) {
        DPGEN_CHECK(m->payload.size() == bytes,
                    "gather: payload size mismatch");
        std::copy(m->payload.begin(), m->payload.end(),
                  out->begin() + static_cast<std::ptrdiff_t>(
                                     static_cast<std::size_t>(m->source) *
                                     bytes));
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  } else {
    send(root, kGatherTag, send_buf, bytes);
  }
  barrier();
}

void World::run(const std::function<void(Comm&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(comms_.size());
  for (std::size_t r = 0; r < comms_.size(); ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(*comms_[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  // When one rank hits a genuine error it poisons the transport, so its
  // peers all unwind with secondary TransportFailures.  Rethrow the root
  // cause, not whichever secondary happens to sit at a lower rank —
  // otherwise a fault-tolerant caller would "recover" from a plain bug.
  std::exception_ptr transport_error;
  for (auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const TransportFailure&) {
      if (!transport_error) transport_error = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (transport_error) std::rethrow_exception(transport_error);
}

}  // namespace dpgen::minimpi
