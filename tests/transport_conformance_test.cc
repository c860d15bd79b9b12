// Transport conformance suite: the contract in net/transport.h, executed
// against BOTH implementations — the in-process SimNetwork and the real
// TcpTransport over loopback sockets. Whatever fabric carries the SMR
// protocol must pass all of these: per-pair FIFO, self-send, thread-safe
// concurrent senders, frames far beyond one read() chunk, and the
// guarantee that sending to a crashed peer never wedges the sender.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/messages.h"
#include "common/stopwatch.h"
#include "net/sim_network.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

namespace psmr {
namespace {

// Grabs an ephemeral loopback port. The bind/close/rebind race is
// theoretical on a loopback-only test box.
int pick_free_port() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  close(fd);
  return ntohs(addr.sin_port);
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// A fabric of n endpoints with ids 0..n-1, regardless of whether they share
// one transport object (SimNetwork) or run one per node (TcpTransport).
class Fabric {
 public:
  virtual ~Fabric() = default;
  virtual Transport& node(NodeId id) = 0;
  // Makes the node unreachable: SimNetwork crashes the endpoint, the TCP
  // fabric shuts the node's transport down (sockets close, port goes dead).
  virtual void kill(NodeId id) = 0;
};

class SimFabric final : public Fabric {
 public:
  explicit SimFabric(std::vector<Transport::Handler> handlers) {
    SimNetwork::Config config;
    config.base_latency_us = 20;
    config.jitter_us = 10;
    net_ = std::make_unique<SimNetwork>(config);
    for (auto& handler : handlers) net_->add_endpoint(std::move(handler));
  }
  Transport& node(NodeId) override { return *net_; }
  void kill(NodeId id) override { net_->crash(id); }

 private:
  std::unique_ptr<SimNetwork> net_;
};

class TcpFabric final : public Fabric {
 public:
  explicit TcpFabric(std::vector<Transport::Handler> handlers) {
    const int n = static_cast<int>(handlers.size());
    std::map<NodeId, std::string> addresses;
    for (int i = 0; i < n; ++i) {
      addresses[i] = "127.0.0.1:" + std::to_string(pick_free_port());
    }
    for (int i = 0; i < n; ++i) {
      TcpTransport::Config config;
      config.local_id = i;
      config.listen_address = addresses[i];
      config.peers = addresses;
      config.reconnect_initial_ms = 5;
      config.reconnect_max_ms = 100;
      nodes_.push_back(std::make_unique<TcpTransport>(config));
      EXPECT_EQ(nodes_.back()->add_endpoint(std::move(handlers[
                    static_cast<std::size_t>(i)])),
                i);
    }
  }
  ~TcpFabric() override {
    for (auto& node : nodes_) node->shutdown();
  }
  Transport& node(NodeId id) override {
    return *nodes_[static_cast<std::size_t>(id)];
  }
  void kill(NodeId id) override {
    nodes_[static_cast<std::size_t>(id)]->shutdown();
  }

 private:
  std::vector<std::unique_ptr<TcpTransport>> nodes_;
};

enum class FabricKind { kSim, kTcp };

std::string fabric_name(const ::testing::TestParamInfo<FabricKind>& info) {
  return info.param == FabricKind::kSim ? "SimNetwork" : "TcpTransport";
}

class TransportConformanceTest : public ::testing::TestWithParam<FabricKind> {
 protected:
  std::unique_ptr<Fabric> make_fabric(
      std::vector<Transport::Handler> handlers) {
    if (GetParam() == FabricKind::kSim) {
      return std::make_unique<SimFabric>(std::move(handlers));
    }
    return std::make_unique<TcpFabric>(std::move(handlers));
  }
};

// Messages must round-trip the codec to survive the TCP wire; ReplyMsg
// (tagged with client_seq = sequence, value = sender tag) is the smallest
// codec-registered message that carries test payload.
MessagePtr tagged(std::uint64_t seq, std::uint64_t sender) {
  return make_message<ReplyMsg>(seq, sender, true);
}

struct Inbox {
  std::mutex mu;  // NOLINT(psmr-raw-mutex) test-local inbox; lifetime confined to the fixture
  std::map<NodeId, std::vector<std::uint64_t>> by_sender;  // seq per from  // NOLINT(psmr-guarded-by-coverage) guarded by mu (test-local)
  std::atomic<std::uint64_t> count{0};

  Transport::Handler handler() {
    return [this](NodeId from, MessagePtr m) {
      if (m->type != msg::kReply) return;
      const auto& reply = message_as<ReplyMsg>(m);
      {
        std::lock_guard lock(mu);
        by_sender[from].push_back(reply.client_seq);
      }
      count.fetch_add(1);
    };
  }
};

Transport::Handler null_handler() { return [](NodeId, MessagePtr) {}; }

TEST_P(TransportConformanceTest, DeliversBetweenNodesAndToSelf) {
  Inbox inbox0;
  Inbox inbox1;
  std::vector<Transport::Handler> handlers;
  handlers.push_back(inbox0.handler());
  handlers.push_back(inbox1.handler());
  auto fabric = make_fabric(std::move(handlers));

  fabric->node(0).send(0, 1, tagged(7, 0));
  fabric->node(1).send(1, 1, tagged(9, 1));  // self-send
  ASSERT_TRUE(wait_until([&] { return inbox1.count.load() == 2; }));
  std::lock_guard lock(inbox1.mu);
  EXPECT_EQ(inbox1.by_sender[0], std::vector<std::uint64_t>{7});
  EXPECT_EQ(inbox1.by_sender[1], std::vector<std::uint64_t>{9});
}

TEST_P(TransportConformanceTest, PerPairFifoOrdering) {
  constexpr std::uint64_t kPerSender = 400;
  Inbox sink;
  std::vector<Transport::Handler> handlers;
  handlers.push_back(null_handler());
  handlers.push_back(null_handler());
  handlers.push_back(sink.handler());
  auto fabric = make_fabric(std::move(handlers));

  for (std::uint64_t i = 0; i < kPerSender; ++i) {
    fabric->node(0).send(0, 2, tagged(i, 0));
    fabric->node(1).send(1, 2, tagged(i, 1));
  }
  ASSERT_TRUE(
      wait_until([&] { return sink.count.load() == 2 * kPerSender; }));

  std::lock_guard lock(sink.mu);
  for (NodeId sender : {0, 1}) {
    const auto& seqs = sink.by_sender[sender];
    ASSERT_EQ(seqs.size(), kPerSender) << "sender " << sender;
    for (std::uint64_t i = 0; i < kPerSender; ++i) {
      ASSERT_EQ(seqs[i], i) << "sender " << sender << " position " << i;
    }
  }
}

TEST_P(TransportConformanceTest, ConcurrentSendersAllDelivered) {
  constexpr int kThreadsPerNode = 2;
  constexpr std::uint64_t kPerThread = 150;
  Inbox sink;
  std::vector<Transport::Handler> handlers;
  handlers.push_back(null_handler());
  handlers.push_back(null_handler());
  handlers.push_back(null_handler());
  handlers.push_back(sink.handler());
  auto fabric = make_fabric(std::move(handlers));

  std::vector<std::thread> threads;
  for (NodeId sender = 0; sender < 3; ++sender) {
    for (int t = 0; t < kThreadsPerNode; ++t) {
      threads.emplace_back([&fabric, sender] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          fabric->node(sender).send(sender, 3, tagged(i, 0));
        }
      });
    }
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t expected = 3 * kThreadsPerNode * kPerThread;
  ASSERT_TRUE(wait_until([&] { return sink.count.load() == expected; }));
  std::lock_guard lock(sink.mu);
  for (NodeId sender : {0, 1, 2}) {
    EXPECT_EQ(sink.by_sender[sender].size(), kThreadsPerNode * kPerThread);
  }
}

TEST_P(TransportConformanceTest, LargeFramesSurviveIntact) {
  // > 64 KiB forces multi-chunk reads and partial writes on the TCP path.
  constexpr std::size_t kSnapshotBytes = 256 * 1024 + 13;
  std::vector<std::uint8_t> snapshot(kSnapshotBytes);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    snapshot[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 8));
  }

  std::mutex mu;
  std::vector<std::uint8_t> received;
  std::atomic<int> got{0};
  std::vector<Transport::Handler> handlers;
  handlers.push_back(null_handler());
  handlers.push_back([&](NodeId, MessagePtr m) {
    if (m->type != msg::kStateResponse) return;
    std::lock_guard lock(mu);
    received = message_as<StateResponseMsg>(m).snapshot;
    got.store(1);
  });
  auto fabric = make_fabric(std::move(handlers));

  fabric->node(0).send(0, 1,
                       make_message<StateResponseMsg>(42, 1, snapshot));
  ASSERT_TRUE(wait_until([&] { return got.load() == 1; }));
  std::lock_guard lock(mu);
  EXPECT_EQ(received, snapshot);
}

TEST_P(TransportConformanceTest, SendAfterPeerCrashDoesNotWedgeSender) {
  Inbox sink;
  std::vector<Transport::Handler> handlers;
  handlers.push_back(null_handler());
  handlers.push_back(null_handler());
  handlers.push_back(sink.handler());
  auto fabric = make_fabric(std::move(handlers));

  // Prove the path to node 1 works, then kill it.
  fabric->node(0).send(0, 1, tagged(0, 0));
  fabric->kill(1);

  const std::uint64_t start_ns = now_ns();
  for (std::uint64_t i = 0; i < 500; ++i) {
    fabric->node(0).send(0, 1, tagged(i, 0));
  }
  const std::uint64_t elapsed_ms = (now_ns() - start_ns) / 1'000'000ull;
  EXPECT_LT(elapsed_ms, 2000u) << "send() to a dead peer must not block";

  // The sender is still live: traffic to a healthy peer flows.
  for (std::uint64_t i = 0; i < 10; ++i) {
    fabric->node(0).send(0, 2, tagged(i, 0));
  }
  EXPECT_TRUE(wait_until([&] { return sink.count.load() == 10; }));
}

TEST_P(TransportConformanceTest, RemoveEndpointStopsHandlerInvocations) {
  Inbox sink;
  std::vector<Transport::Handler> handlers;
  handlers.push_back(null_handler());
  handlers.push_back(sink.handler());
  auto fabric = make_fabric(std::move(handlers));

  // Prove delivery works, then deregister the receiver under load.
  fabric->node(0).send(0, 1, tagged(0, 0));
  ASSERT_TRUE(wait_until([&] { return sink.count.load() >= 1; }));

  std::atomic<bool> stop_flood{false};
  std::thread flooder([&] {
    std::uint64_t seq = 1;
    while (!stop_flood.load()) {
      fabric->node(0).send(0, 1, tagged(seq++, 0));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fabric->node(1).remove_endpoint(1);
  // The contract: once remove_endpoint returns, no handler invocation is
  // running or will ever start, even with a sender still flooding.
  const std::uint64_t at_removal = sink.count.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(sink.count.load(), at_removal)
      << "handler ran after remove_endpoint returned";
  stop_flood.store(true);
  flooder.join();
}

TEST_P(TransportConformanceTest, RemoveEndpointIsIdempotentAndIgnoresUnknownIds) {
  Inbox sink;
  std::vector<Transport::Handler> handlers;
  handlers.push_back(null_handler());
  handlers.push_back(null_handler());
  handlers.push_back(sink.handler());
  auto fabric = make_fabric(std::move(handlers));

  fabric->node(1).remove_endpoint(1);
  fabric->node(1).remove_endpoint(1);   // second removal: no-op
  fabric->node(1).remove_endpoint(99);  // not hosted anywhere: ignored
  fabric->node(1).remove_endpoint(-1);

  // Sends to the removed endpoint are dropped without wedging the sender...
  const std::uint64_t start_ns = now_ns();
  for (std::uint64_t i = 0; i < 200; ++i) {
    fabric->node(0).send(0, 1, tagged(i, 0));
  }
  EXPECT_LT((now_ns() - start_ns) / 1'000'000ull, 2000u);
  // ...and the rest of the fabric still delivers.
  for (std::uint64_t i = 0; i < 10; ++i) {
    fabric->node(0).send(0, 2, tagged(i, 0));
  }
  EXPECT_TRUE(wait_until([&] { return sink.count.load() == 10; }));
}

TEST_P(TransportConformanceTest, ShutdownWhileSendsAreRunning) {
  // Killing a node while its own senders are mid-flight must not wedge
  // them, and no late wake-up may write to a descriptor shutdown already
  // closed (its number can be reused by an unrelated file). Shutdown races
  // are intermittent, hence the rounds.
  for (int round = 0; round < 50; ++round) {
    std::vector<Transport::Handler> handlers;
    handlers.push_back(null_handler());
    handlers.push_back(null_handler());
    auto fabric = make_fabric(std::move(handlers));
    std::atomic<bool> stop{false};
    std::vector<std::thread> senders;
    for (NodeId to : {0, 1}) {  // to self and to the peer
      senders.emplace_back([&, to] {
        for (std::uint64_t seq = 0; !stop.load(); ++seq) {
          fabric->node(0).send(0, to, tagged(seq, 0));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    fabric->kill(0);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    stop.store(true);
    for (auto& sender : senders) sender.join();
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportConformanceTest,
                         ::testing::Values(FabricKind::kSim,
                                           FabricKind::kTcp),
                         fabric_name);

}  // namespace
}  // namespace psmr
