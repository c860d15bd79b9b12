#include "net/tcp_transport.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "codec/command_codec.h"
#include "common/stopwatch.h"
#include "net/wire.h"

namespace psmr {

namespace {

// epoll user-data tags for the non-connection fds.
constexpr std::uint64_t kTagListener = ~0ull;
constexpr std::uint64_t kTagWake = ~0ull - 1;

// Splits "host:port" and resolves to an IPv4 socket address.
bool resolve_hostport(const std::string& hostport, sockaddr_in* out) {
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon + 1 >= hostport.size()) return false;
  const std::string host = hostport.substr(0, colon);
  const std::string port = hostport.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (getaddrinfo(host.empty() ? nullptr : host.c_str(), port.c_str(), &hints,
                  &result) != 0 ||
      result == nullptr) {
    return false;
  }
  std::memcpy(out, result->ai_addr, sizeof(sockaddr_in));
  freeaddrinfo(result);
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(Config config)
    : config_(std::move(config)),
      metrics_{MetricsRegistry::global().counter("net.tcp.frames_in"),
               MetricsRegistry::global().counter("net.tcp.frames_out"),
               MetricsRegistry::global().counter("net.tcp.bytes_in"),
               MetricsRegistry::global().counter("net.tcp.bytes_out"),
               MetricsRegistry::global().counter("net.tcp.delivered"),
               MetricsRegistry::global().counter("net.tcp.dropped"),
               MetricsRegistry::global().counter("net.tcp.dials"),
               MetricsRegistry::global().counter("net.tcp.accepts"),
               MetricsRegistry::global().counter("net.tcp.backoffs"),
               MetricsRegistry::global().counter("net.tcp.peers_dead"),
               MetricsRegistry::global().gauge("net.tcp.outq_bytes")} {
  for (const auto& [id, address] : config_.peers) {
    if (id == config_.local_id) continue;
    peers_[id].address = address;
  }
}

TcpTransport::~TcpTransport() { shutdown(); }

NodeId TcpTransport::add_endpoint(Handler handler) {
  MutexLock lock(mu_);
  if (started_ || stopping_ || config_.local_id < 0) return -1;

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) return -1;

  if (!config_.listen_address.empty()) {
    sockaddr_in addr{};
    if (!resolve_hostport(config_.listen_address, &addr)) return -1;
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return -1;
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        listen(listen_fd_, 64) != 0) {
      close(listen_fd_);
      listen_fd_ = -1;
      return -1;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListener;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagWake;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }

  handler_ = std::move(handler);
  started_ = true;
  io_thread_ = std::thread([this] { io_loop(); });
  dispatcher_ = std::thread([this] {
    while (auto item = inbox_.pop()) {
      // Per-message gate so remove_endpoint can fence out the handler; see
      // the dispatch_mu_ comment in the header.
      std::lock_guard<std::mutex> gate(dispatch_mu_);
      if (endpoint_removed_.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
        drop_message();
        continue;
      }
      handler_(item->first, std::move(item->second));
    }
  });
  return config_.local_id;
}

void TcpTransport::remove_endpoint(NodeId node) {
  if (node != config_.local_id) return;
  endpoint_removed_.store(true, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
  // Wait out an in-progress handler invocation; any dispatch that starts
  // after this unlock observes the flag (the mutex orders the store).
  std::lock_guard<std::mutex> gate(dispatch_mu_);
}

void TcpTransport::send(NodeId from, NodeId to, MessagePtr msg) {
  if (!msg) return;
  // Serialize outside the lock; the frame bytes are what cross the wire.
  ByteWriter payload_writer;
  encode_message(*msg, payload_writer);
  std::vector<std::uint8_t> payload = payload_writer.take();
  if (payload.empty() || payload.size() > config_.max_frame_bytes) {
    drop_message();
    return;
  }

  MutexLock lock(mu_);
  if (!started_ || stopping_ || from != config_.local_id || to < 0) {
    drop_message();
    return;
  }
  if (to == config_.local_id) {  // self-send: no socket round trip
    if (inbox_.push({from, std::move(msg)})) {
      delivered_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      metrics_.delivered.inc();
    } else {
      drop_message();
    }
    return;
  }
  Peer& peer = peer_entry_locked(to);
  if (peer.dead || (peer.conn == nullptr && peer.address.empty())) {
    drop_message();  // unreachable (retry cap hit, or client never dialed in)
    return;
  }
  if (peer.outq_bytes + payload.size() + wire::kFrameHeaderBytes >
      config_.sendq_limit_bytes) {
    drop_message();  // bounded backpressure: drop newest, never block
    return;
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(wire::kFrameHeaderBytes + payload.size());
  wire::put_u32_le(frame, static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  peer.outq_bytes += frame.size();
  metrics_.outq_bytes.add(static_cast<std::int64_t>(frame.size()));
  peer.outq.push_back(std::move(frame));
  wake();
}

void TcpTransport::wake() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

void TcpTransport::shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    if (!started_) {
      if (epoll_fd_ >= 0) close(epoll_fd_);
      if (wake_fd_ >= 0) close(wake_fd_);
      if (listen_fd_ >= 0) close(listen_fd_);
      epoll_fd_ = wake_fd_ = listen_fd_ = -1;
      return;
    }
    wake();
  }
  if (io_thread_.joinable()) io_thread_.join();
  {
    // The I/O thread is gone, and every send() after stopping_ drops before
    // touching wake_fd_: nothing can use these fds any more.
    MutexLock lock(mu_);
    close(epoll_fd_);
    close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
  }
  inbox_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

TcpTransport::Peer& TcpTransport::peer_entry_locked(NodeId id) {
  return peers_[id];  // default entry: no address, reachable only inbound
}

std::uint64_t TcpTransport::backoff_ns(int attempts) const {
  std::uint64_t ms = config_.reconnect_initial_ms;
  for (int i = 1; i < attempts && ms < config_.reconnect_max_ms; ++i) ms *= 2;
  if (ms > config_.reconnect_max_ms) ms = config_.reconnect_max_ms;
  return ms * 1'000'000ull;
}

void TcpTransport::update_events_locked(Conn& conn, std::uint32_t wanted) {
  if (conn.events == wanted) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.u64 = static_cast<std::uint64_t>(conn.fd);
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.events = wanted;
}

void TcpTransport::close_conn_locked(Conn& conn, bool connect_failed) {
  const int fd = conn.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  if (conn.peer >= 0) {
    auto it = peers_.find(conn.peer);
    if (it != peers_.end() && it->second.conn == &conn) {
      Peer& peer = it->second;
      peer.conn = nullptr;
      // A partially written frame died with this stream: re-send it whole
      // on the next connection (the receiver never completed it, so this
      // cannot duplicate a delivery).
      peer.outq_bytes += peer.outq_off;
      metrics_.outq_bytes.add(static_cast<std::int64_t>(peer.outq_off));
      peer.outq_off = 0;
      if (!peer.address.empty()) {
        peer.attempts = connect_failed ? peer.attempts + 1 : 1;
        peer.next_retry_ns = now_ns() + backoff_ns(peer.attempts);
        metrics_.backoffs.inc();
        if (peer.attempts > config_.reconnect_max_attempts) {
          peer.dead = true;
          metrics_.peers_dead.inc();
          while (!peer.outq.empty()) {
            peer.outq.pop_front();
            drop_message();
          }
          metrics_.outq_bytes.sub(static_cast<std::int64_t>(peer.outq_bytes));
          peer.outq_bytes = 0;
        }
      }
    }
  }
  conns_.erase(fd);  // destroys `conn`
}

void TcpTransport::maybe_dial_locked(NodeId id, Peer& peer,
                                     std::uint64_t now) {
  if (stopping_ || peer.dead || peer.conn != nullptr || peer.address.empty() ||
      peer.outq_bytes == 0 || now < peer.next_retry_ns) {
    return;
  }
  sockaddr_in addr{};
  if (!resolve_hostport(peer.address, &addr)) {
    peer.attempts++;
    peer.next_retry_ns = now + backoff_ns(peer.attempts);
    metrics_.backoffs.inc();
    return;
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    peer.attempts++;
    peer.next_retry_ns = now + backoff_ns(peer.attempts);
    metrics_.backoffs.inc();
    return;
  }
  set_nodelay(fd);
  metrics_.dials.inc();
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    peer.attempts++;
    peer.next_retry_ns = now + backoff_ns(peer.attempts);
    metrics_.backoffs.inc();
    if (peer.attempts > config_.reconnect_max_attempts) {
      peer.dead = true;
      metrics_.peers_dead.inc();
    }
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->peer = id;
  conn->dialed = true;
  conn->connecting = (rc != 0);
  if (!conn->connecting) {
    conn->wbuf = wire::encode_hello(
        static_cast<std::uint32_t>(config_.local_id));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.u64 = static_cast<std::uint64_t>(fd);
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  conn->events = EPOLLIN | EPOLLOUT;
  peer.conn = conn.get();
  conns_[fd] = std::move(conn);
}

void TcpTransport::finish_connect_locked(Conn& conn) {
  int err = 0;
  socklen_t len = sizeof(err);
  getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    close_conn_locked(conn, /*connect_failed=*/true);
    return;
  }
  conn.connecting = false;
  conn.wbuf =
      wire::encode_hello(static_cast<std::uint32_t>(config_.local_id));
  auto it = peers_.find(conn.peer);
  if (it != peers_.end()) it->second.attempts = 0;
}

void TcpTransport::accept_ready_locked() {
  while (true) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error
    set_nodelay(fd);
    metrics_.accepts.inc();
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->wbuf =
        wire::encode_hello(static_cast<std::uint32_t>(config_.local_id));
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = static_cast<std::uint64_t>(fd);
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conn->events = EPOLLIN | EPOLLOUT;
    conns_[fd] = std::move(conn);
  }
}

// Writes conn.wbuf (the HELLO). Returns false if the connection was closed.
bool TcpTransport::parse_inbound_locked(Conn& conn) {
  std::size_t pos = 0;
  while (true) {
    if (!conn.hello_received) {
      if (conn.rbuf.size() - pos < wire::kHelloBytes) break;
      wire::Hello hello;
      if (!wire::decode_hello(conn.rbuf.data() + pos, &hello)) return false;
      pos += wire::kHelloBytes;
      const NodeId announced = static_cast<NodeId>(hello.node_id);
      if (conn.dialed) {
        if (announced != conn.peer) return false;  // wrong node at address
      } else {
        if (announced == config_.local_id) return false;
        conn.peer = announced;
        Peer& peer = peer_entry_locked(announced);
        if (peer.address.empty()) {
          // Reachable only through inbound connections: route our outbound
          // frames over this one. A reconnecting peer replaces its old conn.
          if (peer.conn != nullptr && peer.conn != &conn) {
            Conn* old = peer.conn;
            peer.conn = nullptr;
            close_conn_locked(*old, false);
          }
          peer.conn = &conn;
          peer.outq_bytes += peer.outq_off;  // re-send any partial frame whole
          metrics_.outq_bytes.add(static_cast<std::int64_t>(peer.outq_off));
          peer.outq_off = 0;
          peer.dead = false;
        }
      }
      conn.hello_received = true;
      continue;
    }
    if (conn.rbuf.size() - pos < wire::kFrameHeaderBytes) break;
    const std::uint32_t length = wire::get_u32_le(conn.rbuf.data() + pos);
    if (length == 0 || length > config_.max_frame_bytes) return false;
    if (conn.rbuf.size() - pos < wire::kFrameHeaderBytes + length) break;
    MessagePtr msg = decode_message(
        {conn.rbuf.data() + pos + wire::kFrameHeaderBytes, length});
    pos += wire::kFrameHeaderBytes + length;
    metrics_.frames_in.inc();
    if (msg) {
      if (inbox_.push({conn.peer, std::move(msg)})) {
        delivered_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
        metrics_.delivered.inc();
      } else {
        drop_message();
      }
    } else {
      drop_message();  // well-framed but undecodable payload
    }
  }
  if (pos > 0) conn.rbuf.erase(conn.rbuf.begin(), conn.rbuf.begin() + pos);
  return true;
}

void TcpTransport::handle_readable_locked(Conn& conn) {
  while (true) {
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      metrics_.bytes_in.inc(static_cast<std::uint64_t>(n));
      conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + n);
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn_locked(conn, false);  // EOF or hard error
    return;
  }
  if (!parse_inbound_locked(conn)) close_conn_locked(conn, false);
}

void TcpTransport::flush_peer_locked(Peer& peer) {
  Conn* conn = peer.conn;
  if (conn == nullptr || conn->connecting) return;
  // HELLO first: it must precede every frame on the stream.
  while (conn->woff < conn->wbuf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->wbuf.data() + conn->woff,
               conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_events_locked(*conn, EPOLLIN | EPOLLOUT);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn_locked(*conn, false);
    return;
  }
  while (!peer.outq.empty()) {
    const std::vector<std::uint8_t>& front = peer.outq.front();
    const ssize_t n = ::send(conn->fd, front.data() + peer.outq_off,
                             front.size() - peer.outq_off, MSG_NOSIGNAL);
    if (n > 0) {
      peer.outq_off += static_cast<std::size_t>(n);
      peer.outq_bytes -= static_cast<std::size_t>(n);
      metrics_.bytes_out.inc(static_cast<std::uint64_t>(n));
      metrics_.outq_bytes.sub(n);
      if (peer.outq_off == front.size()) {
        peer.outq.pop_front();
        peer.outq_off = 0;
        metrics_.frames_out.inc();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn_locked(*conn, false);
    return;
  }
  update_events_locked(
      *conn, peer.outq.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT));
}

void TcpTransport::handle_writable_locked(Conn& conn) {
  if (conn.connecting) {
    finish_connect_locked(conn);
    // finish_connect may have closed the conn; callers re-look it up.
    return;
  }
  if (conn.peer >= 0) {
    auto it = peers_.find(conn.peer);
    if (it != peers_.end() && it->second.conn == &conn) {
      flush_peer_locked(it->second);
      return;
    }
  }
  // Inbound-only connection (e.g. a replica peer dialing us): only the
  // HELLO ever sits in its write buffer.
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    close_conn_locked(conn, false);
    return;
  }
  update_events_locked(conn, EPOLLIN);
}

std::uint64_t TcpTransport::next_timer_locked(std::uint64_t now) const {
  std::uint64_t next = 0;
  for (const auto& [id, peer] : peers_) {
    if (peer.dead || peer.conn != nullptr || peer.address.empty() ||
        peer.outq_bytes == 0) {
      continue;
    }
    const std::uint64_t at = peer.next_retry_ns > now ? peer.next_retry_ns : now;
    if (next == 0 || at < next) next = at;
  }
  return next;  // 0: nothing scheduled
}

void TcpTransport::io_loop() {
  MutexLock lock(mu_);
  while (true) {
    if (stopping_) break;
    const std::uint64_t now = now_ns();
    // Kick pending traffic: dial disconnected peers, flush connected ones.
    for (auto& [id, peer] : peers_) {
      if (peer.outq_bytes == 0) continue;
      if (peer.conn == nullptr) {
        maybe_dial_locked(id, peer, now);
      } else if (!peer.conn->connecting) {
        flush_peer_locked(peer);
      }
    }
    int timeout_ms = 1000;
    const std::uint64_t next = next_timer_locked(now);
    if (next != 0) {
      const std::uint64_t delta = next > now ? next - now : 0;
      timeout_ms = static_cast<int>(delta / 1'000'000ull) + 1;
      if (timeout_ms > 1000) timeout_ms = 1000;
    }

    epoll_event events[64];
    lock.unlock();
    const int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);  // NOLINT(psmr-blocking-under-lock) lock released across the wait (unlock/lock pair)
    lock.lock();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kTagWake) {
        std::uint64_t buf;
        [[maybe_unused]] ssize_t r = read(wake_fd_, &buf, sizeof(buf));
        continue;
      }
      if (tag == kTagListener) {
        accept_ready_locked();
        continue;
      }
      auto it = conns_.find(static_cast<int>(tag));
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn* conn = it->second.get();
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        if (conn->connecting) {
          close_conn_locked(*conn, /*connect_failed=*/true);
        } else {
          // Drain remaining inbound bytes (EPOLLHUP can coincide with
          // buffered data), then close via the read path.
          handle_readable_locked(*conn);
        }
        continue;
      }
      if (events[i].events & EPOLLOUT) handle_writable_locked(*conn);
      if (conns_.find(static_cast<int>(tag)) == conns_.end()) continue;
      if (events[i].events & EPOLLIN) handle_readable_locked(*conn);
    }
  }

  // Graceful shutdown: flush queued outbound frames for up to
  // drain_timeout_ms, then close everything.
  const std::uint64_t deadline =
      now_ns() + config_.drain_timeout_ms * 1'000'000ull;
  while (now_ns() < deadline) {
    bool pending = false;
    for (auto& [id, peer] : peers_) {
      if (peer.conn != nullptr && !peer.conn->connecting &&
          (peer.outq_bytes > 0 || peer.conn->woff < peer.conn->wbuf.size())) {
        flush_peer_locked(peer);
        if (peer.conn != nullptr && peer.outq_bytes > 0) pending = true;
      }
    }
    if (!pending) break;
    epoll_event events[16];
    lock.unlock();
    epoll_wait(epoll_fd_, events, 16, 10);  // NOLINT(psmr-blocking-under-lock) lock released across the wait (unlock/lock pair)
    lock.lock();
  }
  while (!conns_.empty()) {
    close_conn_locked(*conns_.begin()->second, false);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  // epoll_fd_ and wake_fd_ stay open until shutdown() has joined us.
}

}  // namespace psmr
