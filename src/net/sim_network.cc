#include "net/sim_network.h"

#include <algorithm>
#include <bit>

#include "common/stopwatch.h"

namespace psmr {

namespace {

// One stream per sender, seeded from (config seed, sender id). The id is
// mixed in between two splitmix steps, so neighbouring ids get unrelated
// streams rather than overlapping splitmix sequences.
std::uint64_t sender_seed(std::uint64_t seed, NodeId id) {
  std::uint64_t state = seed;
  state = splitmix64(state) + static_cast<std::uint64_t>(id);
  return splitmix64(state);
}

}  // namespace

SimNetwork::SimNetwork(Config config)
    : config_(config),
      metrics_{MetricsRegistry::global().counter("net.sim.delivered"),
               MetricsRegistry::global().counter("net.sim.dropped"),
               MetricsRegistry::global().gauge("net.sim.inflight")} {}

SimNetwork::~SimNetwork() { shutdown(); }

std::pair<std::size_t, std::size_t> SimNetwork::locate(NodeId id) {
  const std::size_t biased = static_cast<std::size_t>(id) + kFirstChunk;
  const std::size_t chunk = static_cast<std::size_t>(
      std::bit_width(biased) - std::bit_width(kFirstChunk));
  return {chunk, biased - (kFirstChunk << chunk)};
}

SimNetwork::Endpoint* SimNetwork::find(NodeId id) const {
  if (id < 0 || id >= endpoint_count_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  const auto [chunk, slot] = locate(id);
  return chunks_[chunk][slot].get();
}

NodeId SimNetwork::add_endpoint(Handler handler) {
  MutexLock lock(mu_);
  const NodeId id = endpoint_count_.load(std::memory_order_acquire);
  const auto [chunk, slot] = locate(id);
  auto& slots = chunks_[chunk];
  if (slots == nullptr) {
    slots = std::make_unique<std::unique_ptr<Endpoint>[]>(kFirstChunk
                                                          << chunk);
  }
  slots[slot] = std::make_unique<Endpoint>(id, std::move(handler),
                                           sender_seed(config_.seed, id));
  Endpoint* raw = slots[slot].get();
  raw->dispatcher = std::thread([this, raw] { dispatch_loop(*raw); });
  endpoint_count_.store(id + 1, std::memory_order_release);
  return id;
}

void SimNetwork::send(NodeId from, NodeId to, MessagePtr msg) {
  if (stopping_.load(std::memory_order_acquire)) return;
  Endpoint* sender = find(from);
  Endpoint* receiver = find(to);
  if (sender == nullptr || receiver == nullptr) return;
  const Pushed pushed = push(*sender, *receiver, std::move(msg));
  if (pushed == Pushed::kNo) {
    count_dropped(1);
    return;
  }
  metrics_.inflight.add(1);
  // The dispatcher sleeps until its inbox head's deadline; only a message
  // that becomes the new head needs to wake it.
  if (pushed == Pushed::kNewHead) receiver->inbox_cv.notify_one();
}

SimNetwork::Pushed SimNetwork::push(Endpoint& sender, Endpoint& receiver,
                                    MessagePtr msg) {
  MutexLock link_lock(sender.link_mu);
  // purge_node_locked() sets the flag before it takes this lock, so a send
  // that finds the flag clear here has pushed before the purge looks.
  if (sender.crashed.load(std::memory_order_relaxed) ||  // NOLINT(psmr-relaxed-order-audit) ordered by link_mu, which the purge takes after the store
      sender.removed.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) ordered by link_mu, which the purge takes after the store
    return Pushed::kNo;
  }
  if (config_.drop_rate > 0.0 && sender.rng.uniform() < config_.drop_rate) {
    return Pushed::kNo;
  }
  const std::uint64_t latency_ns =
      (config_.base_latency_us +
       (config_.jitter_us > 0 ? sender.rng.below(config_.jitter_us) : 0)) *
      1000ull;
  std::uint64_t deliver_at = now_ns() + latency_ns;
  // Enforce per-link FIFO: never schedule before an earlier message on the
  // same link.
  const auto last = sender.last_delivery.find(receiver.id);
  if (last != sender.last_delivery.end()) {
    deliver_at = std::max(deliver_at, last->second + 1);
  }
  bool new_head = false;
  {
    MutexLock inbox_lock(receiver.inbox_mu);
    // A crashed, removed or shut-down receiver's inbox is closed: nothing
    // may land in it, since its dispatcher has stopped taking messages.
    if (receiver.closed) return Pushed::kNo;
    auto& inbox = receiver.inbox;
    new_head = inbox.empty() || deliver_at < inbox.front().deliver_at_ns;
    inbox.push_back({deliver_at, receiver.next_sequence++, sender.id, &sender,
                     std::move(msg)});
    std::push_heap(inbox.begin(), inbox.end(), later);
  }
  if (last != sender.last_delivery.end()) {
    last->second = deliver_at;
  } else {
    sender.last_delivery.emplace(receiver.id, deliver_at);
  }
  return new_head ? Pushed::kNewHead : Pushed::kBehindHead;
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
  Endpoint* endpoint = find(node);
  if (endpoint == nullptr) return;
  endpoint->crashed.store(true, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) published to senders by the link locks the purge takes
  // Drop its queued traffic now and forget its per-link FIFO state:
  // long-running fault tests crash many endpoints, and dead links must not
  // accumulate.
  purge_node_locked(*endpoint);
}

void SimNetwork::remove_endpoint(NodeId node) {
  Endpoint* endpoint = nullptr;
  {
    MutexLock lock(mu_);
    endpoint = find(node);
    if (endpoint == nullptr) return;
    if (endpoint->removed.exchange(true, std::memory_order_acq_rel)) {
      endpoint = nullptr;  // another remover owns the join
    } else {
      purge_node_locked(*endpoint);
    }
  }
  // Join outside mu_: the dispatcher takes mu_ for the cut-link check.
  if (endpoint != nullptr && endpoint->dispatcher.joinable()) {
    endpoint->dispatcher.join();
  }
}

void SimNetwork::purge_node_locked(Endpoint& node) {
  // Closed first: from here on a send to the node fails its closed check,
  // and one that pushed earlier still holds its own link lock, which the
  // sweep below waits for.
  close_inbox(node);
  // A send from the node that finds its flag clear pushes before this lock
  // is free; every later one finds the flag set and pushes nothing.
  {
    MutexLock link_lock(node.link_mu);
    node.last_delivery.clear();
  }
  for (NodeId id = 0; Endpoint* endpoint = find(id); ++id) {
    if (endpoint == &node) continue;
    {
      MutexLock link_lock(endpoint->link_mu);
      endpoint->last_delivery.erase(node.id);
    }
    std::vector<InFlight> purged;
    {
      MutexLock inbox_lock(endpoint->inbox_mu);
      auto& inbox = endpoint->inbox;
      const auto keep_end = std::partition(
          inbox.begin(), inbox.end(),
          [&node](const InFlight& item) { return item.from != node.id; });
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
  std::size_t total = 0;
  for (NodeId id = 0; const Endpoint* endpoint = find(id); ++id) {
    MutexLock link_lock(endpoint->link_mu);
    total += endpoint->last_delivery.size();
  }
  return total;
}

std::size_t SimNetwork::in_flight() const {
  MutexLock lock(mu_);
  std::size_t total = 0;
  for (NodeId id = 0; const Endpoint* endpoint = find(id); ++id) {
    MutexLock inbox_lock(endpoint->inbox_mu);
    total += endpoint->inbox.size();
  }
  return total;
}

std::vector<std::uint64_t> SimNetwork::queued_deadlines(NodeId from,
                                                        NodeId to) const {
  std::vector<std::uint64_t> deadlines;
  const Endpoint* receiver = find(to);
  if (receiver == nullptr) return deadlines;
  {
    MutexLock inbox_lock(receiver->inbox_mu);
    for (const InFlight& item : receiver->inbox) {
      if (item.from == from) deadlines.push_back(item.deliver_at_ns);
    }
  }
  std::sort(deadlines.begin(), deadlines.end());
  return deadlines;
}

bool SimNetwork::crashed(NodeId node) const {
  const Endpoint* endpoint = find(node);
  return endpoint == nullptr ||
         endpoint->crashed.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
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
  // dispatcher takes mu_ for the cut-link check.
  std::vector<Endpoint*> endpoints;
  {
    MutexLock lock(mu_);
    if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
    for (NodeId id = 0; Endpoint* endpoint = find(id); ++id) {
      endpoints.push_back(endpoint);
    }
  }
  for (Endpoint* endpoint : endpoints) close_inbox(*endpoint);
  for (Endpoint* endpoint : endpoints) {
    if (endpoint->dispatcher.joinable()) endpoint->dispatcher.join();
  }
}

}  // namespace psmr
