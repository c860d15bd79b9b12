#include "tracing.h"

#include <cstdlib>

#include "broadcast/messages.h"
#include "common/stopwatch.h"

namespace psmr::e2e {

namespace {
constexpr std::size_t kBitmapWords = StageTracer::kMaxCheckedSeq / 64;
}  // namespace

StageTracer::StageTracer(int replicas, NodeId leader)
    : replicas_(replicas), leader_(leader) {
  if (replicas < 1 || replicas > kMaxReplicas) std::abort();
  for (int r = 0; r < replicas; ++r) {
    executed_.push_back(
        std::make_unique<std::atomic<std::uint64_t>[]>(kBitmapWords));
  }
}

void StageTracer::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(on, std::memory_order_release);
  // A message sent in the window but delivered after it would otherwise
  // leave its entry behind for a later message at the same address; an
  // ACCEPT whose COMMIT falls after the window is no longer needed.
  if (!on) {
    in_transit_.clear();
    accepted_slots_.clear();
  }
}

bool StageTracer::before_send(NodeId to, const Message& m) {
  const std::uint64_t n = sends_.fetch_add(1, std::memory_order_relaxed);
  if (n % kSampleEvery != 0 || !enabled()) return false;
  // Registered before the send so a delivery that beats after_send() finds
  // the entry (still 0) and drops it rather than leaving it behind.
  std::lock_guard<std::mutex> lock(mu_);
  in_transit_[{&m, to}] = 0;
  return true;
}

void StageTracer::after_send(NodeId from, NodeId to, const Message& m,
                             bool sampled_send, std::uint64_t t0,
                             std::uint64_t t1) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (sampled_send) {
    send_ns_.push_back(t1 - t0);
    auto it = in_transit_.find({&m, to});
    if (it != in_transit_.end()) it->second = t1;
  }
  if (from != leader_) return;
  if (m.type == msg::kAccept) {
    const auto& accept = static_cast<const AcceptMsg&>(m);
    auto [slot, fresh] = accepted_slots_.try_emplace(accept.seq);
    if (!fresh) return;  // the same ACCEPT going to the next follower
    for (const Command& c : accept.batch) {
      if (!sampled(c.client_seq)) continue;
      Stamps& s = stamps_locked(c.client_seq);
      if (s.accept_sent == 0) s.accept_sent = t0;
      slot->second.push_back(c.client_seq);
    }
  } else if (m.type == msg::kCommit) {
    auto slot = accepted_slots_.find(static_cast<const CommitMsg&>(m).seq);
    if (slot == accepted_slots_.end()) return;
    for (std::uint64_t seq : slot->second) {
      Stamps& s = stamps_locked(seq);
      if (s.commit_sent == 0) s.commit_sent = t0;
    }
    accepted_slots_.erase(slot);
  }
}

void StageTracer::on_deliver(NodeId to, const MessagePtr& m, std::uint64_t t) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = in_transit_.find({m.get(), to});
  if (it != in_transit_.end()) {
    if (it->second != 0) transit_ns_.push_back(t - it->second);
    in_transit_.erase(it);
  }
  if (to != leader_ || m->type != msg::kRequest) return;
  for (const Command& c : message_as<RequestMsg>(m).commands) {
    if (!sampled(c.client_seq)) continue;
    Stamps& s = stamps_locked(c.client_seq);
    if (s.leader_recv == 0) s.leader_recv = t;
  }
}

void StageTracer::on_handled(NodeId to, std::uint64_t t0, std::uint64_t t1) {
  if (!enabled() || to < 0 || to >= replicas_) return;
  std::lock_guard<std::mutex> lock(mu_);
  handler_ns_.push_back(t1 - t0);
}

void StageTracer::on_execute(int replica, const Command& c, std::uint64_t t0,
                             std::uint64_t t1) {
  if (c.client_seq >= kMaxCheckedSeq) {
    unchecked_.fetch_add(1, std::memory_order_relaxed);
  } else {
    const std::uint64_t bit = std::uint64_t{1} << (c.client_seq % 64);
    auto& word = executed_[static_cast<std::size_t>(replica)][c.client_seq / 64];
    if (word.fetch_or(bit, std::memory_order_relaxed) & bit) {
      duplicates_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (t0 == 0 || !enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Stamps& s = stamps_locked(c.client_seq);
  s.exec_start[static_cast<std::size_t>(replica)] = t0;
  s.exec_end[static_cast<std::size_t>(replica)] = t1;
  exec_ns_.push_back(t1 - t0);
}

std::map<std::uint64_t, StageTracer::Stamps> StageTracer::stamps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stamps_;
}

Samples StageTracer::send_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return send_ns_;
}

Samples StageTracer::transit_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transit_ns_;
}

Samples StageTracer::handler_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return handler_ns_;
}

Samples StageTracer::exec_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exec_ns_;
}

NodeId TracingTransport::add_endpoint(Handler handler) {
  // The id is known only once the inner transport returns it; a message
  // cannot reach the endpoint before then (nobody knows the id yet).
  auto self = std::make_shared<std::atomic<NodeId>>(-1);
  const NodeId id = inner_->add_endpoint(
      [this, self, handler = std::move(handler)](NodeId from, MessagePtr m) {
        const NodeId to = self->load(std::memory_order_acquire);
        const std::uint64_t t0 = now_ns();
        tracer_.on_deliver(to, m, t0);
        handler(from, std::move(m));
        tracer_.on_handled(to, t0, now_ns());
      });
  self->store(id, std::memory_order_release);
  return id;
}

void TracingTransport::send(NodeId from, NodeId to, MessagePtr msg) {
  const MessagePtr keep_alive = msg;  // read again after the send returns
  const bool sampled_send = tracer_.before_send(to, *msg);
  const std::uint64_t t0 = now_ns();
  inner_->send(from, to, std::move(msg));
  tracer_.after_send(from, to, *keep_alive, sampled_send, t0, now_ns());
}

Response TracingService::execute(const Command& c) {
  if (!sampled(c.client_seq) || c.client == 0) {
    tracer_.on_execute(replica_, c, 0, 0);
    return inner_->execute(c);
  }
  const std::uint64_t t0 = now_ns();
  Response r = inner_->execute(c);
  tracer_.on_execute(replica_, c, t0, now_ns());
  return r;
}

}  // namespace psmr::e2e
