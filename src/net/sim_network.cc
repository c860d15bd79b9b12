#include "net/sim_network.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace psmr {

SimNetwork::SimNetwork(Config config)
    : config_(config),
      rng_(config.seed),
      metrics_{MetricsRegistry::global().counter("net.sim.delivered"),
               MetricsRegistry::global().counter("net.sim.dropped"),
               MetricsRegistry::global().gauge("net.sim.inflight")} {}

SimNetwork::~SimNetwork() { shutdown(); }

NodeId SimNetwork::add_endpoint(Handler handler) {
  MutexLock lock(mu_);
  const NodeId id = static_cast<NodeId>(endpoints_.size());
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->id = id;
  endpoint->handler = std::move(handler);
  Endpoint* raw = endpoint.get();
  endpoint->dispatcher = std::thread([this, raw] { dispatch_loop(*raw); });
  endpoints_.push_back(std::move(endpoint));
  return id;
}

void SimNetwork::send(NodeId from, NodeId to, MessagePtr msg) {
  MutexLock lock(mu_);
  if (stopping_) return;
  const auto n = static_cast<NodeId>(endpoints_.size());
  if (to < 0 || to >= n || from < 0 || from >= n) return;
  const Endpoint& sender = *endpoints_[static_cast<std::size_t>(from)];
  if (sender.crashed.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
    count_dropped(1);
    return;
  }
  if (config_.drop_rate > 0.0 && rng_.uniform() < config_.drop_rate) {
    count_dropped(1);
    return;
  }
  const std::uint64_t latency_ns =
      (config_.base_latency_us +
       (config_.jitter_us > 0 ? rng_.below(config_.jitter_us) : 0)) *
      1000ull;
  // crash() and remove_endpoint() set these flags and close the inbox
  // under mu_, so under mu_ an open inbox is exactly an unflagged one.
  Endpoint& receiver = *endpoints_[static_cast<std::size_t>(to)];
  if (receiver.crashed.load(std::memory_order_relaxed) ||  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      receiver.removed.load(std::memory_order_acquire)) {
    count_dropped(1);
    return;
  }
  std::uint64_t deliver_at = now_ns() + latency_ns;
  // Enforce per-link FIFO: never schedule before an earlier message on the
  // same link.
  auto& last = last_delivery_[{from, to}];
  deliver_at = std::max(deliver_at, last + 1);
  last = deliver_at;
  // The dispatcher sleeps until its inbox head's deadline; only a message
  // that becomes the new head needs to wake it.
  bool new_head = false;
  {
    MutexLock inbox_lock(receiver.inbox_mu);
    auto& inbox = receiver.inbox;
    new_head = inbox.empty() || deliver_at < inbox.front().deliver_at_ns;
    inbox.push_back(
        {deliver_at, next_sequence_++, from, &sender, std::move(msg)});
    std::push_heap(inbox.begin(), inbox.end(), later);
  }
  metrics_.inflight.add(1);
  if (new_head) receiver.inbox_cv.notify_one();
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
  cut_link_count_.store(cut_links_.size(), std::memory_order_release);
}

void SimNetwork::crash(NodeId node) {
  MutexLock lock(mu_);
  if (node < 0 || node >= static_cast<NodeId>(endpoints_.size())) return;
  endpoints_[static_cast<std::size_t>(node)]->crashed.store(
      true, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
  // Drop its queued traffic now and forget its per-link FIFO state:
  // long-running fault tests crash many endpoints, and dead links must not
  // accumulate.
  purge_node_locked(node);
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
  // Join outside mu_: the handler may be inside send() right now.
  if (endpoint != nullptr && endpoint->dispatcher.joinable()) {
    endpoint->dispatcher.join();
  }
}

void SimNetwork::purge_node_locked(NodeId node) {
  for (auto it = last_delivery_.begin(); it != last_delivery_.end();) {
    if (it->first.first == node || it->first.second == node) {
      it = last_delivery_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& endpoint : endpoints_) {
    if (endpoint->id == node) {
      close_inbox(*endpoint);
      continue;
    }
    std::vector<InFlight> purged;
    {
      MutexLock inbox_lock(endpoint->inbox_mu);
      auto& inbox = endpoint->inbox;
      const auto keep_end = std::partition(
          inbox.begin(), inbox.end(),
          [node](const InFlight& item) { return item.from != node; });
      if (keep_end == inbox.end()) continue;
      purged.assign(std::make_move_iterator(keep_end),
                    std::make_move_iterator(inbox.end()));
      inbox.erase(keep_end, inbox.end());
      std::make_heap(inbox.begin(), inbox.end(), later);
    }
    // A removed head only makes the dispatcher wake early and re-check.
    metrics_.inflight.sub(static_cast<std::int64_t>(purged.size()));
    count_dropped(purged.size());
  }
}

void SimNetwork::close_inbox(Endpoint& endpoint) {
  std::vector<InFlight> dropped;
  {
    MutexLock lock(endpoint.inbox_mu);
    endpoint.closed = true;
    dropped.swap(endpoint.inbox);
  }
  endpoint.inbox_cv.notify_one();
  metrics_.inflight.sub(static_cast<std::int64_t>(dropped.size()));
  count_dropped(dropped.size());
}

void SimNetwork::count_dropped(std::uint64_t n) {
  if (n == 0) return;
  dropped_.fetch_add(n, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  metrics_.dropped.inc(n);
}

std::size_t SimNetwork::link_state_entries() const {
  MutexLock lock(mu_);
  return last_delivery_.size();
}

std::size_t SimNetwork::in_flight() const {
  MutexLock lock(mu_);
  std::size_t total = 0;
  for (const auto& endpoint : endpoints_) {
    MutexLock inbox_lock(endpoint->inbox_mu);
    total += endpoint->inbox.size();
  }
  return total;
}

bool SimNetwork::crashed(NodeId node) const {
  MutexLock lock(mu_);
  if (node < 0 || node >= static_cast<NodeId>(endpoints_.size())) return true;
  return endpoints_[static_cast<std::size_t>(node)]->crashed.load(
      std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
}

bool SimNetwork::deliverable(const Endpoint& to, const InFlight& item) {
  if (to.crashed.load(std::memory_order_relaxed) ||  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      to.removed.load(std::memory_order_acquire) ||
      item.sender->crashed.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
    return false;
  }
  if (cut_link_count_.load(std::memory_order_acquire) == 0) return true;
  MutexLock lock(mu_);
  return link_up_locked(item.from, to.id);
}

void SimNetwork::dispatch_loop(Endpoint& endpoint) {
  std::vector<InFlight> due;
  while (true) {
    {
      MutexLock lock(endpoint.inbox_mu);
      auto& inbox = endpoint.inbox;
      while (due.empty()) {
        if (endpoint.closed) return;
        if (inbox.empty()) {
          endpoint.inbox_cv.wait(endpoint.inbox_mu);
          continue;
        }
        const std::uint64_t now = now_ns();
        const std::uint64_t head = inbox.front().deliver_at_ns;
        if (head > now) {
          endpoint.inbox_cv.wait_for(endpoint.inbox_mu,
                                     std::chrono::nanoseconds(head - now));
          continue;
        }
        // Take every due message at once: one wake-up per burst.
        while (!inbox.empty() && inbox.front().deliver_at_ns <= now) {
          std::pop_heap(inbox.begin(), inbox.end(), later);
          due.push_back(std::move(inbox.back()));
          inbox.pop_back();
        }
      }
    }
    metrics_.inflight.sub(static_cast<std::int64_t>(due.size()));
    // Handlers run without the inbox lock: they send, and a send to this
    // endpoint pushes into this inbox.
    for (InFlight& item : due) {
      if (deliverable(endpoint, item)) {
        delivered_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
        metrics_.delivered.inc();
        endpoint.handler(item.from, std::move(item.msg));
      } else {
        count_dropped(1);
      }
    }
    due.clear();
  }
}

void SimNetwork::shutdown() {
  // Snapshot the endpoints under mu_, then close/join outside it: a
  // dispatcher handler may call send(), which takes mu_.
  std::vector<Endpoint*> endpoints;
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    endpoints.reserve(endpoints_.size());
    for (auto& endpoint : endpoints_) endpoints.push_back(endpoint.get());
  }
  for (Endpoint* endpoint : endpoints) close_inbox(*endpoint);
  for (Endpoint* endpoint : endpoints) {
    if (endpoint->dispatcher.joinable()) endpoint->dispatcher.join();
  }
}

}  // namespace psmr
