#include "load_client.h"

#include <thread>

#include "broadcast/messages.h"
#include "common/stopwatch.h"

namespace psmr::e2e {

LoadClient::LoadClient(Transport& net, std::vector<NodeId> replicas,
                       const std::vector<Command>& pool, bool keep_sampled)
    : net_(net),
      replicas_(std::move(replicas)),
      pool_(pool),
      keep_sampled_(keep_sampled),
      ring_(std::make_unique<Slot[]>(kRing)),
      window_latency_(kSlices) {
  endpoint_ = net_.add_endpoint(
      [this](NodeId from, MessagePtr m) { on_message(from, m); });
}

LoadClient::~LoadClient() { net_.remove_endpoint(endpoint_); }

void LoadClient::issue(std::uint64_t start_ns) {
  // Held across numbering and sending: replicas drop a command whose
  // client_seq arrives after a higher one (at-most-once), so commands must
  // leave in seq order even while the caller and the dispatcher both issue.
  std::lock_guard<std::mutex> lock(issue_mu_);
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
  Command c = pool_[(seq - 1) % pool_.size()];
  c.client = static_cast<std::uint64_t>(endpoint_);
  c.client_seq = seq;
  Slot& slot = ring_[seq % kRing];
  slot.replied.store(false, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.sent_ns.store(now_ns(), std::memory_order_relaxed);
  // Release: the dispatcher that sees this seq sees the fields above.
  slot.seq.store(seq, std::memory_order_release);
  auto m = make_message<RequestMsg>(std::vector<Command>{c});
  for (NodeId replica : replicas_) net_.send(endpoint_, replica, m);
}

bool LoadClient::probe(std::uint64_t timeout_ms) {
  const std::uint64_t target = completed() + 1;
  issue(now_ns());
  const std::uint64_t deadline = now_ns() + timeout_ms * 1'000'000ull;
  while (completed() < target) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

void LoadClient::start_closed(int outstanding) {
  issuing_.store(true, std::memory_order_release);
  for (int i = 0; i < outstanding; ++i) issue(now_ns());
}

bool LoadClient::drain(std::uint64_t timeout_ms) {
  stop();
  const std::uint64_t deadline = now_ns() + timeout_ms * 1'000'000ull;
  while (completed() < issued()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void LoadClient::record_window(std::uint64_t t0_ns, std::uint64_t slice_ns,
                               bool by_start) {
  SliceLatency empty(kSlices);
  std::lock_guard<std::mutex> lock(window_mu_);
  window_latency_.swap(empty);
  window_t0_ = t0_ns;
  slice_ns_ = slice_ns;
  by_start_ = by_start;
}

SliceLatency LoadClient::window_latency() const {
  std::lock_guard<std::mutex> lock(window_mu_);
  return window_latency_;
}

void LoadClient::on_message(NodeId from, const MessagePtr& m) {
  if (m->type != msg::kReply) return;
  const std::uint64_t now = now_ns();
  const auto& reply = message_as<ReplyMsg>(m);
  Slot& slot = ring_[reply.client_seq % kRing];
  if (slot.seq.load(std::memory_order_acquire) != reply.client_seq ||
      slot.replied.exchange(true, std::memory_order_relaxed)) {
    return;  // a later replica's reply, or a record already reused
  }
  const std::uint64_t start = slot.start_ns.load(std::memory_order_relaxed);
  const std::uint64_t latency = now - start;
  if (latency > kDeadlineNs) late_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    const std::uint64_t at = by_start_ ? start : now;
    if (window_t0_ != 0 && at >= window_t0_ &&
        (at - window_t0_) / slice_ns_ < kSlices) {
      window_latency_[(at - window_t0_) / slice_ns_].record(latency);
    }
  }
  if (keep_sampled_ && sampled(reply.client_seq)) {
    sampled_.push_back({reply.client_seq, start,
                        slot.sent_ns.load(std::memory_order_relaxed), now,
                        from});
  }
  completed_.fetch_add(1, std::memory_order_acq_rel);
  if (issuing_.load(std::memory_order_acquire)) issue(now);
}

}  // namespace psmr::e2e
