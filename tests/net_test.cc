#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "net/sim_network.h"

namespace psmr {
namespace {

struct IntMsg final : Message {
  explicit IntMsg(int v) : Message(100), value(v) {}
  int value;
};

SimNetwork::Config fast_config() {
  SimNetwork::Config config;
  config.base_latency_us = 50;
  config.jitter_us = 20;
  return config;
}

TEST(SimNetwork, DeliversMessage) {
  SimNetwork net(fast_config());
  std::atomic<int> received{-1};
  std::atomic<NodeId> from_seen{-1};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b = net.add_endpoint([&](NodeId from, MessagePtr m) {
    from_seen = from;
    received = message_as<IntMsg>(m).value;
  });
  net.send(a, b, make_message<IntMsg>(42));
  for (int i = 0; i < 200 && received.load() < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), 42);
  EXPECT_EQ(from_seen.load(), a);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(SimNetwork, SelfSendWorks) {
  SimNetwork net(fast_config());
  std::atomic<int> received{-1};
  NodeId a = net.add_endpoint(
      [&](NodeId, MessagePtr m) { received = message_as<IntMsg>(m).value; });
  net.send(a, a, make_message<IntMsg>(7));
  for (int i = 0; i < 200 && received.load() < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), 7);
}

TEST(SimNetwork, PerLinkFifoOrderDespiteJitter) {
  SimNetwork::Config config;
  config.base_latency_us = 10;
  config.jitter_us = 500;  // heavy jitter tries to reorder
  SimNetwork net(config);
  std::vector<int> received;
  std::mutex mu;
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b = net.add_endpoint([&](NodeId, MessagePtr m) {
    std::lock_guard lock(mu);
    received.push_back(message_as<IntMsg>(m).value);
  });
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) net.send(a, b, make_message<IntMsg>(i));
  for (int i = 0; i < 400; ++i) {
    {
      std::lock_guard lock(mu);
      if (static_cast<int>(received.size()) == kMessages) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard lock(mu);
  ASSERT_EQ(static_cast<int>(received.size()), kMessages);
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(SimNetwork, CrashedEndpointReceivesNothing) {
  SimNetwork net(fast_config());
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  net.crash(b);
  EXPECT_TRUE(net.crashed(b));
  for (int i = 0; i < 10; ++i) net.send(a, b, make_message<IntMsg>(i));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(count.load(), 0);
  EXPECT_GE(net.messages_dropped(), 10u);
}

TEST(SimNetwork, CrashedEndpointSendsNothing) {
  SimNetwork net(fast_config());
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  net.crash(a);
  net.send(a, b, make_message<IntMsg>(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(count.load(), 0);
}

TEST(SimNetwork, CutLinkDropsTrafficBothWays) {
  SimNetwork net(fast_config());
  std::atomic<int> at_a{0}, at_b{0};
  const NodeId a =
      net.add_endpoint([&](NodeId, MessagePtr) { at_a.fetch_add(1); });
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { at_b.fetch_add(1); });
  net.set_link(a, b, false);
  net.send(a, b, make_message<IntMsg>(1));
  net.send(b, a, make_message<IntMsg>(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(at_a.load(), 0);
  EXPECT_EQ(at_b.load(), 0);

  // Healing the link restores delivery.
  net.set_link(a, b, true);
  net.send(a, b, make_message<IntMsg>(3));
  for (int i = 0; i < 100 && at_b.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(at_b.load(), 1);
}

TEST(SimNetwork, DropRateLosesRoughlyThatFraction) {
  SimNetwork::Config config;
  config.base_latency_us = 1;
  config.jitter_us = 0;
  config.drop_rate = 0.5;
  SimNetwork net(config);
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  constexpr int kMessages = 2000;
  for (int i = 0; i < kMessages; ++i) net.send(a, b, make_message<IntMsg>(i));
  for (int i = 0; i < 200; ++i) {
    if (net.messages_delivered() + net.messages_dropped() >=
        static_cast<std::uint64_t>(kMessages)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_NEAR(count.load(), kMessages / 2, kMessages / 8);
}

TEST(SimNetwork, LatencyIsApplied) {
  SimNetwork::Config config;
  config.base_latency_us = 20'000;  // 20 ms
  config.jitter_us = 0;
  SimNetwork net(config);
  std::atomic<bool> received{false};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { received = true; });
  net.send(a, b, make_message<IntMsg>(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(received.load());  // too early
  for (int i = 0; i < 100 && !received.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(received.load());
}

TEST(SimNetwork, CrashPurgesLinkStateAndInFlightMessages) {
  // Regression test for unbounded last_delivery_ growth: long fault tests
  // crash many endpoints, and the per-link FIFO map used to keep entries
  // for dead links forever. crash() now purges them, and also drops the
  // crashed destination's queued in-flight messages eagerly instead of at
  // their (possibly far-future) delivery time.
  SimNetwork::Config config;
  config.base_latency_us = 500'000;  // 500 ms: messages stay queued
  config.jitter_us = 0;
  SimNetwork net(config);
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  const NodeId c =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });

  for (int i = 0; i < 10; ++i) net.send(a, b, make_message<IntMsg>(i));
  net.send(a, c, make_message<IntMsg>(99));  // survivor traffic
  EXPECT_EQ(net.in_flight(), 11u);
  EXPECT_EQ(net.link_state_entries(), 2u);  // (a,b) and (a,c)

  net.crash(b);
  // Immediately — not 500 ms later — b's queued messages are dropped and
  // its link state is gone; the a->c message is untouched.
  EXPECT_EQ(net.in_flight(), 1u);
  EXPECT_EQ(net.link_state_entries(), 1u);
  EXPECT_GE(net.messages_dropped(), 10u);

  for (int i = 0; i < 200 && count.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count.load(), 1);  // only the survivor delivery happened
}

TEST(SimNetwork, RepeatedCrashesDoNotAccumulateLinkState) {
  SimNetwork net(fast_config());
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  std::vector<NodeId> victims;
  for (int i = 0; i < 8; ++i) {
    victims.push_back(net.add_endpoint([](NodeId, MessagePtr) {}));
  }
  for (NodeId v : victims) {
    net.send(a, v, make_message<IntMsg>(1));
    net.crash(v);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(net.link_state_entries(), 0u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, ShutdownIsIdempotentAndStopsDelivery) {
  SimNetwork net(fast_config());
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  net.shutdown();
  net.shutdown();
  net.send(a, b, make_message<IntMsg>(1));  // silently ignored
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(count.load(), 0);
}

TEST(SimNetwork, EarlierDeadlineIsNotHeldBehindQueueHead) {
  // Latencies are drawn from [0, 100 ms), each sender from its own stream.
  // With seed 24 the first message (sender id 1) draws 96.20 ms and the
  // earliest of the rest (sender id 21) draws 0.47 ms, so it is due about
  // 10.5 ms after the first send. All go to one receiver, each from its own
  // sender so that no per-link FIFO stamp holds a message behind the first.
  // The first is sent alone so the receiver's dispatcher goes to sleep until
  // its deadline; the later sends with earlier deadlines become the new
  // inbox head and must wake it.
  SimNetwork::Config config;
  config.base_latency_us = 0;
  config.jitter_us = 100'000;
  config.seed = 24;
  constexpr std::size_t kLinks = 32;
  std::mutex mu;
  std::vector<std::uint64_t> arrivals;
  SimNetwork net(config);
  const NodeId receiver = net.add_endpoint([&](NodeId, MessagePtr) {
    std::lock_guard lock(mu);
    arrivals.push_back(now_ns());
  });
  std::vector<NodeId> senders;
  for (std::size_t i = 0; i < kLinks; ++i) {
    senders.push_back(net.add_endpoint([](NodeId, MessagePtr) {}));
  }
  const std::uint64_t sent_at = now_ns();
  net.send(senders[0], receiver, make_message<IntMsg>(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (std::size_t i = 1; i < kLinks; ++i) {
    net.send(senders[i], receiver, make_message<IntMsg>(0));
  }
  for (int i = 0; i < 400; ++i) {
    {
      std::lock_guard lock(mu);
      if (arrivals.size() == kLinks) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard lock(mu);
  ASSERT_EQ(arrivals.size(), kLinks);
  const auto [first, last] = std::minmax_element(arrivals.begin(), arrivals.end());
  EXPECT_LT(*first - sent_at, 30'000'000u);
  EXPECT_LT(*last - sent_at, 130'000'000u);
}

TEST(SimNetwork, PerLinkFifoWithConcurrentSendersOnOneLink) {
  // Four threads share one (from, to) link, as a replica's workers reply
  // to one client. Each thread's messages must arrive in its send order.
  SimNetwork::Config config;
  config.base_latency_us = 10;
  config.jitter_us = 500;
  SimNetwork net(config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::mutex mu;
  std::vector<int> received;
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b = net.add_endpoint([&](NodeId, MessagePtr m) {
    std::lock_guard lock(mu);
    received.push_back(message_as<IntMsg>(m).value);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        net.send(a, b, make_message<IntMsg>(t * kPerThread + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < 400; ++i) {
    {
      std::lock_guard lock(mu);
      if (received.size() == std::size_t{kThreads * kPerThread}) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard lock(mu);
  ASSERT_EQ(received.size(), std::size_t{kThreads * kPerThread});
  std::vector<int> next(kThreads, 0);
  for (int value : received) {
    int& expected = next[static_cast<std::size_t>(value / kPerThread)];
    EXPECT_EQ(value % kPerThread, expected) << "thread " << value / kPerThread;
    expected = value % kPerThread + 1;
  }
}

TEST(SimNetwork, CrashAndRemoveDoNotWaitForAFarDeadline) {
  // A message due in 10 s must not hold up crash(), remove_endpoint() or
  // shutdown(), and it counts as dropped, not delivered.
  SimNetwork::Config config;
  config.base_latency_us = 10'000'000;
  config.jitter_us = 0;
  const std::vector<std::pair<const char*, void (*)(SimNetwork&, NodeId)>>
      stops = {
          {"crash", [](SimNetwork& net, NodeId b) { net.crash(b); }},
          {"remove_endpoint",
           [](SimNetwork& net, NodeId b) { net.remove_endpoint(b); }},
          {"shutdown", [](SimNetwork& net, NodeId) { net.shutdown(); }},
      };
  for (const auto& [name, stop] : stops) {
    SimNetwork net(config);
    std::atomic<int> count{0};
    const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
    const NodeId b =
        net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
    net.send(a, b, make_message<IntMsg>(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::uint64_t start = now_ns();
    stop(net, b);
    EXPECT_LT(now_ns() - start, 1'000'000'000u) << name;
    EXPECT_EQ(net.messages_dropped(), 1u) << name;
    EXPECT_EQ(net.messages_delivered(), 0u) << name;
    EXPECT_EQ(net.in_flight(), 0u) << name;
    EXPECT_EQ(count.load(), 0) << name;
  }
}

TEST(SimNetwork, CrashAndRemoveRacingSendsLeaveNothingBehind) {
  // Threads send on every link to and from b and c while crash(b) and
  // remove_endpoint(c) run. Every link touches b or c, so once both calls
  // return nothing may stay queued or stamped, however the sends raced the
  // purge, and neither handler may start again. A handler that passed its
  // delivery check just before crash() may still finish, so b's count is
  // read after a grace period.
  SimNetwork::Config config;
  config.base_latency_us = 50;
  config.jitter_us = 20;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    SimNetwork net(config);
    std::atomic<int> at_b{0};
    std::atomic<int> at_c{0};
    const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
    const NodeId b =
        net.add_endpoint([&](NodeId, MessagePtr) { at_b.fetch_add(1); });
    const NodeId c =
        net.add_endpoint([&](NodeId, MessagePtr) { at_c.fetch_add(1); });
    const NodeId d = net.add_endpoint([](NodeId, MessagePtr) {});
    const std::vector<std::vector<std::pair<NodeId, NodeId>>> links = {
        {{a, b}, {b, a}, {b, c}},
        {{a, c}, {c, a}, {c, b}},
        {{d, b}, {b, d}, {d, c}, {c, d}},
    };
    std::atomic<bool> stop{false};
    std::atomic<int> sent{0};
    std::vector<std::thread> threads;
    for (const auto& mine : links) {
      threads.emplace_back([&, mine] {
        while (!stop.load()) {
          for (const auto& [from, to] : mine) {
            net.send(from, to, make_message<IntMsg>(0));
          }
          sent.fetch_add(1);
        }
      });
    }
    while (sent.load() < 100) std::this_thread::yield();
    net.crash(b);
    net.remove_endpoint(c);
    const int c_calls = at_c.load();
    EXPECT_EQ(net.in_flight(), 0u) << "round " << round;
    EXPECT_EQ(net.link_state_entries(), 0u) << "round " << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int b_calls = at_b.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop = true;
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(net.in_flight(), 0u) << "round " << round;
    EXPECT_EQ(net.link_state_entries(), 0u) << "round " << round;
    EXPECT_EQ(at_b.load(), b_calls) << "round " << round;
    EXPECT_EQ(at_c.load(), c_calls) << "round " << round;
  }
}

TEST(SimNetwork, DrawsArePerSenderAndReproducible) {
  // Jitter spans ~2.8 hours, so nothing is delivered during the test and
  // the queued delivery times, less the time of the first send, are the
  // drawn latencies up to the few milliseconds the sends take. One quarter
  // of the messages are dropped, so the drop draws must line up too.
  SimNetwork::Config config;
  config.base_latency_us = 0;
  config.jitter_us = 10'000'000'000;
  config.drop_rate = 0.25;
  config.seed = 3;
  constexpr int kPerSender = 50;
  constexpr std::uint64_t kTolerance = 1'000'000'000;  // 1 s
  struct Latencies {
    std::vector<std::uint64_t> from_a;
    std::vector<std::uint64_t> from_b;
  };
  // Endpoint ids: receiver 0, a 1, b 2 on every network.
  const auto run = [&](bool a_sends) {
    SimNetwork net(config);
    const NodeId receiver = net.add_endpoint([](NodeId, MessagePtr) {});
    const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
    const NodeId b = net.add_endpoint([](NodeId, MessagePtr) {});
    const std::uint64_t start = now_ns();
    for (int i = 0; i < kPerSender; ++i) {
      if (a_sends) net.send(a, receiver, make_message<IntMsg>(i));
      net.send(b, receiver, make_message<IntMsg>(i));
    }
    Latencies latencies{net.queued_deadlines(a, receiver),
                        net.queued_deadlines(b, receiver)};
    for (auto* list : {&latencies.from_a, &latencies.from_b}) {
      for (std::uint64_t& at : *list) at -= start;
    }
    return latencies;
  };
  const auto expect_close = [&](const std::vector<std::uint64_t>& x,
                                const std::vector<std::uint64_t>& y,
                                const char* what) {
    ASSERT_EQ(x.size(), y.size()) << what;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint64_t gap = x[i] > y[i] ? x[i] - y[i] : y[i] - x[i];
      EXPECT_LT(gap, kTolerance) << what << " message " << i;
    }
  };
  const Latencies first = run(true);
  const Latencies second = run(true);
  const Latencies b_alone = run(false);
  // Drops happen, but not to everything.
  EXPECT_GT(first.from_a.size(), kPerSender / 2u);
  EXPECT_LT(first.from_a.size(), std::size_t{kPerSender});
  expect_close(first.from_a, second.from_a, "a, same sequence");
  expect_close(first.from_b, second.from_b, "b, same sequence");
  EXPECT_TRUE(b_alone.from_a.empty());
  expect_close(first.from_b, b_alone.from_b, "b, without a's traffic");
  // a and b draw from different streams.
  ASSERT_FALSE(first.from_b.empty());
  const std::uint64_t a0 = first.from_a.front();
  const std::uint64_t b0 = first.from_b.front();
  EXPECT_GT(a0 > b0 ? a0 - b0 : b0 - a0, kTolerance);
}

TEST(SimNetwork, ManySendersStress) {
  SimNetwork::Config config;
  config.base_latency_us = 5;
  config.jitter_us = 5;
  SimNetwork net(config);
  std::atomic<int> count{0};
  const NodeId sink =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  std::vector<NodeId> senders;
  for (int i = 0; i < 4; ++i) {
    senders.push_back(net.add_endpoint([](NodeId, MessagePtr) {}));
  }
  constexpr int kPerSender = 2500;
  std::vector<std::thread> threads;
  for (NodeId s : senders) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        net.send(s, sink, make_message<IntMsg>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  const int expected = static_cast<int>(senders.size()) * kPerSender;
  for (int i = 0; i < 1000 && count.load() < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count.load(), expected);
}

}  // namespace
}  // namespace psmr
