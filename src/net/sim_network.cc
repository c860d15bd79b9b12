#include "net/sim_network.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace psmr {

SimNetwork::SimNetwork(Config config)
    : config_(config),
      rng_(config.seed),
      metrics_{MetricsRegistry::global().counter("net.sim.delivered"),
               MetricsRegistry::global().counter("net.sim.dropped"),
               MetricsRegistry::global().gauge("net.sim.inflight")} {
  delivery_thread_ = std::thread([this] { delivery_loop(); });
}

SimNetwork::~SimNetwork() { shutdown(); }

NodeId SimNetwork::add_endpoint(Handler handler) {
  MutexLock lock(mu_);
  const NodeId id = static_cast<NodeId>(endpoints_.size());
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->handler = std::move(handler);
  Endpoint* raw = endpoint.get();
  endpoint->dispatcher = std::thread([this, raw] {
    while (auto item = raw->inbox.pop()) {
      // remove_endpoint closes the inbox and joins this thread; drop (do
      // not dispatch) whatever the close left behind — the handler's owner
      // is being destroyed.
      if (raw->removed.load(std::memory_order_acquire)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
        metrics_.dropped.inc();
        continue;
      }
      raw->handler(item->first, std::move(item->second));
    }
  });
  endpoints_.push_back(std::move(endpoint));
  return id;
}

void SimNetwork::send(NodeId from, NodeId to, MessagePtr msg) {
  MutexLock lock(mu_);
  if (stopping_) return;
  const auto n = static_cast<NodeId>(endpoints_.size());
  if (to < 0 || to >= n || from < 0 || from >= n) return;
  if (endpoints_[static_cast<std::size_t>(from)]->crashed.load(
          std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
    dropped_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
    metrics_.dropped.inc();
    return;
  }
  if (config_.drop_rate > 0.0 && rng_.uniform() < config_.drop_rate) {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
    metrics_.dropped.inc();
    return;
  }
  const std::uint64_t latency_ns =
      (config_.base_latency_us +
       (config_.jitter_us > 0 ? rng_.below(config_.jitter_us) : 0)) *
      1000ull;
  std::uint64_t deliver_at = now_ns() + latency_ns;
  // Enforce per-link FIFO: never schedule before an earlier message on the
  // same link.
  auto& last = last_delivery_[{from, to}];
  deliver_at = std::max(deliver_at, last + 1);
  last = deliver_at;
  // The delivery thread sleeps until the head's deadline; only a message
  // that becomes the new head needs to wake it.
  const bool new_head =
      queue_.empty() || deliver_at < queue_.top().deliver_at_ns;
  queue_.push({deliver_at, next_sequence_++, from, to, std::move(msg)});
  metrics_.inflight.add(1);
  if (new_head) cv_.notify_one();
}

bool SimNetwork::link_up_locked(NodeId a, NodeId b) const {
  const auto key = std::minmax(a, b);
  return !cut_links_.contains({key.first, key.second});
}

void SimNetwork::set_link(NodeId a, NodeId b, bool up) {
  MutexLock lock(mu_);
  const auto key = std::minmax(a, b);
  if (up) {
    cut_links_.erase({key.first, key.second});
  } else {
    cut_links_.insert({key.first, key.second});
  }
}

void SimNetwork::crash(NodeId node) {
  Endpoint* endpoint = nullptr;
  {
    MutexLock lock(mu_);
    if (node < 0 || node >= static_cast<NodeId>(endpoints_.size())) return;
    endpoint = endpoints_[static_cast<std::size_t>(node)].get();
    endpoint->crashed.store(true, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
    // Drop its queued traffic now and forget its per-link FIFO state:
    // long-running fault tests crash many endpoints, and dead links must
    // not accumulate.
    purge_node_locked(node);
  }
  endpoint->inbox.close();
}

void SimNetwork::remove_endpoint(NodeId node) {
  Endpoint* endpoint = nullptr;
  {
    MutexLock lock(mu_);
    if (node < 0 || node >= static_cast<NodeId>(endpoints_.size())) return;
    endpoint = endpoints_[static_cast<std::size_t>(node)].get();
    if (endpoint->removed.exchange(true, std::memory_order_acq_rel)) {
      endpoint = nullptr;  // another remover owns the join
    } else {
      purge_node_locked(node);
    }
  }
  if (endpoint == nullptr) return;
  // Close and join outside mu_: the handler may be inside send() right now.
  endpoint->inbox.close();
  if (endpoint->dispatcher.joinable()) endpoint->dispatcher.join();
}

void SimNetwork::purge_node_locked(NodeId node) {
  for (auto it = last_delivery_.begin(); it != last_delivery_.end();) {
    if (it->first.first == node || it->first.second == node) {
      it = last_delivery_.erase(it);
    } else {
      ++it;
    }
  }
  if (queue_.empty()) return;
  std::vector<InFlight> survivors;
  survivors.reserve(queue_.size());
  while (!queue_.empty()) {
    // priority_queue::top is const; the copy is cheap (shared_ptr payload).
    InFlight item = queue_.top();
    queue_.pop();
    if (item.to == node || item.from == node) {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      metrics_.dropped.inc();
      metrics_.inflight.sub(1);
    } else {
      survivors.push_back(std::move(item));
    }
  }
  for (InFlight& item : survivors) queue_.push(std::move(item));
}

std::size_t SimNetwork::link_state_entries() const {
  MutexLock lock(mu_);
  return last_delivery_.size();
}

std::size_t SimNetwork::in_flight() const {
  MutexLock lock(mu_);
  return queue_.size();
}

bool SimNetwork::crashed(NodeId node) const {
  MutexLock lock(mu_);
  if (node < 0 || node >= static_cast<NodeId>(endpoints_.size())) return true;
  return endpoints_[static_cast<std::size_t>(node)]->crashed.load(
      std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
}

void SimNetwork::delivery_loop() {
  MutexLock lock(mu_);
  while (true) {
    if (stopping_) return;
    if (queue_.empty()) {
      cv_.wait(mu_);
      continue;
    }
    const std::uint64_t now = now_ns();
    const InFlight& next = queue_.top();
    if (next.deliver_at_ns > now) {
      cv_.wait_for(mu_,
                   std::chrono::nanoseconds(next.deliver_at_ns - now));
      continue;
    }
    InFlight item = queue_.top();
    queue_.pop();
    metrics_.inflight.sub(1);
    Endpoint& to = *endpoints_[static_cast<std::size_t>(item.to)];
    const bool deliverable =
        !to.crashed.load(std::memory_order_relaxed) &&  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
        !endpoints_[static_cast<std::size_t>(item.from)]->crashed.load(
            std::memory_order_relaxed) &&  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
        link_up_locked(item.from, item.to);
    // Push outside the lock would be nicer, but the inbox push never
    // blocks (unbounded queue), so holding mu_ here is bounded. A push to
    // a closed inbox (removed endpoint) reports the message as dropped.
    if (deliverable && to.inbox.push({item.from, std::move(item.msg)})) {
      delivered_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      metrics_.delivered.inc();
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      metrics_.dropped.inc();
    }
  }
}

void SimNetwork::shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
  // Snapshot the endpoints under mu_, then close/join outside it: a
  // dispatcher handler may call send(), which takes mu_.
  std::vector<Endpoint*> endpoints;
  {
    MutexLock lock(mu_);
    endpoints.reserve(endpoints_.size());
    for (auto& endpoint : endpoints_) endpoints.push_back(endpoint.get());
  }
  for (Endpoint* endpoint : endpoints) {
    endpoint->inbox.close();
  }
  for (Endpoint* endpoint : endpoints) {
    if (endpoint->dispatcher.joinable()) endpoint->dispatcher.join();
  }
}

}  // namespace psmr
