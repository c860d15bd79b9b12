// In-process simulated cluster network.
//
// Substitute for the paper's 7-machine 1 Gbps switched LAN: endpoints are
// in-process actors; send() stamps each message with a delivery time (base
// latency + seeded jitter) and pushes it straight into the receiver's
// time-ordered inbox. Each endpoint's dispatcher thread sleeps until its
// inbox head is due, then runs the handler on every due message in time
// order, one at a time (like a socket read loop). A message in transit
// costs no thread anything: the receiver's dispatcher is the only hand-off,
// as on a real LAN.
//
// send() takes no lock that all senders share: it finds both endpoints
// without a lock, draws and stamps under the sender's own link lock, and
// pushes under the receiver's inbox lock. The network mutex guards
// topology and faults only.
//
// Link semantics are TCP-like, matching what BFT-SMaRt assumes: reliable
// and FIFO per (from, to) pair for sends ordered by happens-before (two
// threads racing on one link have no order to keep), unless a fault is
// injected — links can be cut (partition) and endpoints crashed, which
// silently drops traffic, and a probabilistic drop rate exists for
// network-level tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/ranked_mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/transport.h"

namespace psmr {

struct SimNetworkConfig {
  std::uint64_t base_latency_us = 100;  // one-way
  std::uint64_t jitter_us = 50;         // uniform [0, jitter)
  double drop_rate = 0.0;               // applied per message
  // Each sender draws its drops and jitter from its own stream, seeded from
  // (seed, sender id): one sender's traffic never shifts another's draws.
  std::uint64_t seed = 1;
};

class SimNetwork final : public Transport {
 public:
  using Config = SimNetworkConfig;

  explicit SimNetwork(Config config = Config());
  ~SimNetwork() override;

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // Registers an endpoint; its handler runs on a dedicated dispatcher
  // thread, one message at a time. Must be called before traffic flows to
  // the endpoint. Thread-safe. Ids are assigned sequentially from 0.
  NodeId add_endpoint(Handler handler) override;

  // Asynchronous, thread-safe. Self-sends are allowed.
  void send(NodeId from, NodeId to, MessagePtr msg) override;

  // Fault injection: cut or restore the (bidirectional) link between a and
  // b. Messages in flight on a cut link are dropped at delivery time.
  bool supports_fault_injection() const override { return true; }
  void set_link(NodeId a, NodeId b, bool up) override;

  // Crashes an endpoint: all of its inbound and outbound traffic is dropped
  // from now on (in-flight included). Its dispatcher stops.
  void crash(NodeId node) override;
  bool crashed(NodeId node) const override;

  // Deregisters an endpoint (Transport contract): joins its dispatcher, so
  // on return no handler invocation is running or will start. In-flight
  // messages to the endpoint and its per-link FIFO state are purged.
  void remove_endpoint(NodeId node) override;

  // Test hooks for the purge logic: per-link FIFO entries retained and
  // messages currently queued in inboxes, not yet due or not yet taken by
  // their dispatcher.
  std::size_t link_state_entries() const;
  std::size_t in_flight() const;
  // Test hook for the draws: the delivery times of the messages queued on
  // one link, in delivery order.
  std::vector<std::uint64_t> queued_deadlines(NodeId from, NodeId to) const;

  // Statistics.
  std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }
  std::uint64_t messages_dropped() const override {
    return dropped_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }

  // Closes every inbox, counting what it held as dropped, and joins the
  // dispatchers. Called by the destructor; idempotent.
  void shutdown() override;

 private:
  struct Endpoint;

  struct InFlight {
    std::uint64_t deliver_at_ns;
    std::uint64_t sequence;  // per-inbox tie-break, preserves push order
    NodeId from;
    const Endpoint* sender;  // for the delivery-time crash check
    MessagePtr msg;
  };
  // Heap order for std::push_heap/pop_heap: the top is the earliest
  // (deliver_at_ns, sequence).
  static bool later(const InFlight& a, const InFlight& b) {
    if (a.deliver_at_ns != b.deliver_at_ns) {
      return a.deliver_at_ns > b.deliver_at_ns;
    }
    return a.sequence > b.sequence;
  }

  struct Endpoint {
    Endpoint(NodeId endpoint_id, Handler endpoint_handler,
             std::uint64_t stream_seed)
        : id(endpoint_id),
          handler(std::move(endpoint_handler)),
          rng(stream_seed) {}

    const NodeId id;
    const Handler handler;

    // Outgoing links. send() holds link_mu from its draws through the push
    // into the receiver's inbox and the FIFO stamp, so two sends on one link
    // that are ordered by happens-before keep their order. crash() and
    // remove_endpoint() take it to purge.
    mutable RankedMutex<lock_rank::kSimLink> link_mu;
    Xoshiro256 rng PSMR_GUARDED_BY(link_mu);  // this sender's drops, jitter
    // Per receiver: delivery time of the last message pushed to it (FIFO).
    // Only a message that reached the inbox leaves an entry here.
    std::map<NodeId, std::uint64_t> last_delivery PSMR_GUARDED_BY(link_mu);

    // Inbound side, on its own cache line: other endpoints' sends push here
    // while this endpoint's own threads take link_mu. The dispatcher never
    // holds inbox_mu across a handler.
    alignas(64) mutable RankedMutex<lock_rank::kSimInbox> inbox_mu;
    CondVar inbox_cv;
    std::vector<InFlight> inbox PSMR_GUARDED_BY(inbox_mu);  // min-heap
    std::uint64_t next_sequence PSMR_GUARDED_BY(inbox_mu) = 0;
    // Set by crash/remove_endpoint/shutdown: the inbox takes no more
    // messages and the dispatcher returns.
    bool closed PSMR_GUARDED_BY(inbox_mu) = false;
    std::thread dispatcher;
    std::atomic<bool> crashed{false};
    // Set by remove_endpoint; the dispatcher drops (not dispatches) any
    // due message it already took once it observes the flag.
    std::atomic<bool> removed{false};
  };

  struct Metrics {
    Counter& delivered;
    Counter& dropped;
    Gauge& inflight;
  };

  // What push() did with a message: dropped it, queued it behind the
  // receiver's inbox head, or queued it as the new head.
  enum class Pushed { kNo, kBehindHead, kNewHead };

  // The endpoint with this id, or nullptr; takes no lock.
  Endpoint* find(NodeId id) const;
  // Chunk and slot of an endpoint id in chunks_.
  static std::pair<std::size_t, std::size_t> locate(NodeId id);
  // The body of send() that runs under the sender's link lock.
  Pushed push(Endpoint& sender, Endpoint& receiver, MessagePtr msg);
  bool link_up_locked(NodeId a, NodeId b) const PSMR_REQUIRES(mu_);
  // Closes the inbox of a crashed or removed endpoint, dropping what it
  // holds, and drops its messages queued elsewhere and every per-link FIFO
  // entry to or from it. Shared by crash() and remove_endpoint(); the
  // endpoint's flag must be set first.
  void purge_node_locked(Endpoint& node) PSMR_REQUIRES(mu_);
  // Closes the inbox and drops what it holds.
  void close_inbox(Endpoint& endpoint);
  void dispatch_loop(Endpoint& endpoint);
  // The delivery-time checks: receiver crashed or removed, sender crashed,
  // link cut.
  bool deliverable(const Endpoint& to, const InFlight& item)
      PSMR_EXCLUDES(mu_);
  void count_dropped(std::uint64_t n);

  const Config config_;

  // mu_ guards topology and faults only: adding and removing endpoints,
  // crashes and cut links. send() never takes it; a dispatcher takes it for
  // the cut-link check only while some link is cut.
  mutable RankedMutex<lock_rank::kTransport> mu_;
  std::set<std::pair<NodeId, NodeId>> cut_links_ PSMR_GUARDED_BY(mu_);
  // cut_links_.size(): dispatchers take mu_ for the cut-link check only
  // while some link is cut.
  std::atomic<std::size_t> cut_link_count_{0};
  std::atomic<bool> stopping_{false};

  // Endpoint lookup without a lock. Chunk k holds kFirstChunk << k slots
  // and is allocated by add_endpoint when the first id in it is handed out,
  // so a slot never moves; 26 chunks cover every non-negative NodeId.
  // add_endpoint fills a slot under mu_ and then publishes it by storing
  // endpoint_count_ with release; readers load the count with acquire and
  // read only slots below it. Endpoints live until the SimNetwork is
  // destroyed.
  static constexpr std::size_t kFirstChunk = 64;
  static constexpr std::size_t kChunks = 26;
  std::array<std::unique_ptr<std::unique_ptr<Endpoint>[]>, kChunks> chunks_;
  std::atomic<NodeId> endpoint_count_{0};

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  const Metrics metrics_;
};

}  // namespace psmr
