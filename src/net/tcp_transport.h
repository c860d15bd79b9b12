// Epoll-based TCP transport for multi-process deployments.
//
// One TcpTransport instance hosts exactly one node (a replica or a client
// process): the node id and the peer address map come from the config, and
// add_endpoint() must be called exactly once. Frames are length-prefixed
// (net/wire.h) and payloads are serialized with codec/command_codec.h, so
// a command crosses the wire byte-identically to how checkpoints encode it
// in-process.
//
// Connection model:
//   - Peers with a configured address are *dialed* lazily on first send,
//     with exponential backoff and a retry cap; outbound frames to such a
//     peer always use the dialed connection, so the (from, to) stream is a
//     single TCP byte stream and per-pair FIFO holds.
//   - Peers without a configured address (clients, from a replica's point
//     of view) are learned from inbound connections: each side of a
//     connection announces its node id in a HELLO, and replies are routed
//     back over the accepted connection.
//   - Self-sends bypass the socket layer entirely.
//
// Backpressure: each peer has a bounded outbound byte budget; a send that
// would exceed it is dropped (and counted), never blocked — the SMR layer
// is built for lossy links and retransmits. This is also what keeps a
// sender from wedging when its peer crashes.
//
// Threads: one epoll I/O thread owns every socket (accept, connect
// completion, read, write, reconnect timers); one dispatcher thread pops
// decoded messages from an inbox queue and runs the endpoint handler one
// message at a time, matching SimNetwork's dispatch discipline.
//
// Graceful shutdown drains queued outbound frames for up to
// drain_timeout_ms before closing sockets, so a stopping node's last
// replies/acks still reach its peers.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/metrics.h"
#include "common/ranked_mutex.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace psmr {

struct TcpTransportConfig {
  // Id of the (single) endpoint this process hosts. Non-negative.
  NodeId local_id = 0;
  // "host:port" to accept peers on; empty for dial-only nodes (clients).
  std::string listen_address;
  // Dialable peers: id -> "host:port". Peers not listed here can still
  // talk to us by dialing in (their id is learned from the HELLO).
  std::map<NodeId, std::string> peers;

  // Frames larger than this are a protocol error (connection dropped on
  // receive, message dropped on send). Must comfortably exceed the largest
  // checkpoint shipped by state transfer.
  std::size_t max_frame_bytes = 64u << 20;
  // Per-peer outbound budget: queued + in-flight bytes beyond this drop
  // the newest frame (bounded backpressure, never blocks the sender).
  std::size_t sendq_limit_bytes = 8u << 20;

  // Reconnect schedule for dialable peers: exponential backoff from
  // initial to max, giving up for good after `reconnect_max_attempts`
  // consecutive failures (the peer is then marked dead and sends to it are
  // dropped).
  std::uint64_t reconnect_initial_ms = 10;
  std::uint64_t reconnect_max_ms = 2000;
  int reconnect_max_attempts = 30;

  // Graceful-shutdown budget for flushing queued outbound frames.
  std::uint64_t drain_timeout_ms = 1000;
};

class TcpTransport final : public Transport {
 public:
  using Config = TcpTransportConfig;

  explicit TcpTransport(Config config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // Starts the listener (if configured), the I/O thread and the dispatcher.
  // Must be called exactly once; returns config.local_id, or -1 on setup
  // failure (bad listen address) or repeated call.
  NodeId add_endpoint(Handler handler) override;

  void send(NodeId from, NodeId to, MessagePtr msg) override;

  // Deregisters the (single) hosted endpoint: once this returns, no handler
  // invocation is running or will start; later inbound messages are counted
  // as dropped. The transport's sockets stay up (shutdown() still drains).
  void remove_endpoint(NodeId node) override;

  void shutdown() override;

  std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }
  std::uint64_t messages_dropped() const override {
    return dropped_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }

 private:
  struct Conn {
    int fd = -1;
    NodeId peer = -1;      // dial target, or learned from HELLO
    bool dialed = false;
    bool connecting = false;     // nonblocking connect() still in progress
    bool hello_received = false;
    std::uint32_t events = 0;    // epoll mask currently registered
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;  // HELLO bytes (frames live in Peer)
    std::size_t woff = 0;
  };

  struct Peer {
    std::string address;   // empty: reachable only via an inbound conn
    Conn* conn = nullptr;  // connection outbound frames are written to
    std::deque<std::vector<std::uint8_t>> outq;  // framed, ready to write
    std::size_t outq_bytes = 0;
    std::size_t outq_off = 0;  // partial-write offset into outq.front()
    int attempts = 0;          // consecutive failed dials
    std::uint64_t next_retry_ns = 0;
    bool dead = false;  // retry cap exhausted
  };

  // All private methods below run on the I/O thread with mu_ held (the
  // loop releases it only around epoll_wait).
  void io_loop();
  void start_listener_locked() PSMR_REQUIRES(mu_);
  void accept_ready_locked() PSMR_REQUIRES(mu_);
  void maybe_dial_locked(NodeId id, Peer& peer, std::uint64_t now)
      PSMR_REQUIRES(mu_);
  void finish_connect_locked(Conn& conn) PSMR_REQUIRES(mu_);
  void handle_readable_locked(Conn& conn) PSMR_REQUIRES(mu_);
  void handle_writable_locked(Conn& conn) PSMR_REQUIRES(mu_);
  void flush_peer_locked(Peer& peer) PSMR_REQUIRES(mu_);
  bool parse_inbound_locked(Conn& conn) PSMR_REQUIRES(mu_);
  void close_conn_locked(Conn& conn, bool peer_failure) PSMR_REQUIRES(mu_);
  void update_events_locked(Conn& conn, std::uint32_t wanted)
      PSMR_REQUIRES(mu_);
  std::uint64_t next_timer_locked(std::uint64_t now) const PSMR_REQUIRES(mu_);
  void wake() PSMR_REQUIRES(mu_);

  struct Metrics {
    Counter& frames_in;
    Counter& frames_out;
    Counter& bytes_in;
    Counter& bytes_out;
    Counter& delivered;
    Counter& dropped;
    Counter& dials;      // outbound connection attempts started
    Counter& accepts;    // inbound connections accepted
    Counter& backoffs;   // reconnect backoffs scheduled
    Counter& peers_dead; // peers given up on (retry cap)
    Gauge& outq_bytes;   // queued outbound bytes across all peers
  };

  Peer& peer_entry_locked(NodeId id) PSMR_REQUIRES(mu_);
  std::uint64_t backoff_ns(int attempts) const;
  void drop_message() {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
    metrics_.dropped.inc();
  }

  const Config config_;
  // Set once in add_endpoint() before the dispatcher thread starts, read
  // only by that thread afterwards — deliberately not guarded by mu_.
  Handler handler_;  // NOLINT(psmr-guarded-by-coverage) set once in start(), const thereafter

  // mu_ is held across inbox_ pushes (transport rank precedes the queue
  // rank in the lock hierarchy, DESIGN.md). The fds below are created in
  // add_endpoint() before the I/O thread exists. The I/O thread closes
  // listen_fd_; shutdown() closes epoll_fd_ and wake_fd_ only after joining
  // it, so no wake() can write to a closed (and possibly reused) fd number.
  mutable RankedMutex<lock_rank::kTransport> mu_;
  bool started_ PSMR_GUARDED_BY(mu_) = false;
  bool stopping_ PSMR_GUARDED_BY(mu_) = false;
  int epoll_fd_ = -1;  // NOLINT(psmr-guarded-by-coverage) epoll_wait runs unlocked; closed only after the I/O thread is joined
  int listen_fd_ = -1;  // NOLINT(psmr-guarded-by-coverage) owned by the I/O thread after start()
  // eventfd: send() and shutdown() wake the I/O thread.
  int wake_fd_ PSMR_GUARDED_BY(mu_) = -1;
  std::map<int, std::unique_ptr<Conn>> conns_ PSMR_GUARDED_BY(mu_);  // by fd
  std::map<NodeId, Peer> peers_ PSMR_GUARDED_BY(mu_);

  BlockingQueue<std::pair<NodeId, MessagePtr>> inbox_;
  std::thread io_thread_;
  std::thread dispatcher_;

  // remove_endpoint gate. A plain std::mutex on purpose: it is held across
  // handler_ invocations, which acquire client/replica locks that rank
  // *below* the transport rank — a ranked mutex here would trip the
  // checker. The dispatcher takes it per message; remove_endpoint sets the
  // flag and then acquires it once, which both waits out any in-progress
  // handler and (via the mutex's release/acquire) publishes the flag to
  // every later dispatch.
  std::mutex dispatch_mu_;  // NOLINT(psmr-raw-mutex) deliberately unranked; see the gate comment above
  std::atomic<bool> endpoint_removed_{false};

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  const Metrics metrics_;
};

}  // namespace psmr
