// Atomic-broadcast property tests: validity, uniform agreement, uniform
// integrity, uniform total order (§2 of the paper), batching behaviour, and
// leader-failure recovery via view change.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "broadcast/sequenced_broadcast.h"
#include "common/stopwatch.h"
#include "net/sim_network.h"

namespace psmr {
namespace {

Command cmd(std::uint64_t tag) {
  Command c;
  c.arg = tag;
  return c;
}

// Harness: n broadcast engines over a simulated network, each recording its
// delivery sequence.
class BroadcastHarness {
 public:
  explicit BroadcastHarness(int n, SimNetwork::Config net_config = {},
                            SequencedBroadcast::Config config = {}) {
    net_ = std::make_unique<SimNetwork>(net_config);
    deliveries_.resize(static_cast<std::size_t>(n));
    mus_ = std::vector<std::mutex>(static_cast<std::size_t>(n));
    std::vector<NodeId> endpoints;
    for (int i = 0; i < n; ++i) {
      const int index = i;
      endpoints.push_back(net_->add_endpoint(
          [this, index](NodeId from, MessagePtr m) {
            if (engines_ready_.load()) {
              engines_[static_cast<std::size_t>(index)]->handle(from, m);
            }
          }));
    }
    for (int i = 0; i < n; ++i) {
      const int index = i;
      engines_.push_back(std::make_unique<SequencedBroadcast>(
          *net_, endpoints[static_cast<std::size_t>(i)], i, endpoints, config,
          [this, index](std::uint64_t seq, const std::vector<Command>& batch) {
            std::lock_guard lock(mus_[static_cast<std::size_t>(index)]);
            for (const Command& c : batch) {
              deliveries_[static_cast<std::size_t>(index)].push_back(
                  {seq, c.arg});
            }
          }));
    }
    endpoints_ = endpoints;
    engines_ready_.store(true);
    for (auto& engine : engines_) engine->start();
  }

  ~BroadcastHarness() {
    net_->shutdown();
    for (auto& engine : engines_) engine->stop();
  }

  SequencedBroadcast& engine(int i) {
    return *engines_[static_cast<std::size_t>(i)];
  }
  NodeId engine_endpoint(int i) const {
    return endpoints_[static_cast<std::size_t>(i)];
  }
  SimNetwork& net() { return *net_; }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> delivered(int i) {
    std::lock_guard lock(mus_[static_cast<std::size_t>(i)]);
    return deliveries_[static_cast<std::size_t>(i)];
  }

  // Waits until replica i delivered at least `count` commands.
  bool wait_delivered(int i, std::size_t count, int timeout_ms = 5000) {
    for (int t = 0; t < timeout_ms / 5; ++t) {
      if (delivered(i).size() >= count) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  int size() const { return static_cast<int>(engines_.size()); }

 private:
  std::unique_ptr<SimNetwork> net_;
  std::vector<NodeId> endpoints_;
  std::vector<std::unique_ptr<SequencedBroadcast>> engines_;
  std::atomic<bool> engines_ready_{false};
  std::vector<std::mutex> mus_;  // NOLINT(psmr-raw-mutex) test harness; independent per-slot locks, no nesting
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      deliveries_;  // (slot seq, command tag)
};

SimNetwork::Config fast_net() {
  SimNetwork::Config config;
  config.base_latency_us = 30;
  config.jitter_us = 20;
  return config;
}

SequencedBroadcast::Config fast_broadcast() {
  SequencedBroadcast::Config config;
  config.batch_timeout_us = 200;
  config.heartbeat_interval_ms = 5;
  // Generous relative to the heartbeat so a loaded CI host (or a sanitizer
  // build) does not trigger spurious view changes mid-test.
  config.leader_timeout_ms = 250;
  config.tick_interval_ms = 1;
  return config;
}

TEST(Broadcast, LeaderOfViewZeroIsReplicaZero) {
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  EXPECT_TRUE(h.engine(0).is_leader());
  EXPECT_FALSE(h.engine(1).is_leader());
  EXPECT_FALSE(h.engine(2).is_leader());
}

TEST(Broadcast, ValidityEveryoneDeliversSubmitted) {
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  EXPECT_TRUE(h.engine(0).submit({cmd(1), cmd(2), cmd(3)}));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.wait_delivered(i, 3)) << "replica " << i;
  }
}

TEST(Broadcast, NonLeaderSubmitIsRejected) {
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  EXPECT_FALSE(h.engine(1).submit({cmd(1)}));
  EXPECT_FALSE(h.engine(2).submit({cmd(1)}));
}

TEST(Broadcast, UniformTotalOrderAcrossReplicas) {
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  constexpr int kCommands = 500;
  for (int i = 0; i < kCommands; ++i) {
    EXPECT_TRUE(h.engine(0).submit({cmd(static_cast<std::uint64_t>(i))}));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.wait_delivered(i, kCommands)) << "replica " << i;
  }
  const auto reference = h.delivered(0);
  for (int i = 1; i < 3; ++i) {
    const auto other = h.delivered(i);
    ASSERT_EQ(other.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_EQ(other[k], reference[k]) << "divergence at position " << k;
    }
  }
}

TEST(Broadcast, IntegrityNoDuplicateDeliveries) {
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  constexpr int kCommands = 300;
  for (int i = 0; i < kCommands; ++i) {
    h.engine(0).submit({cmd(static_cast<std::uint64_t>(i))});
  }
  ASSERT_TRUE(h.wait_delivered(0, kCommands));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 3; ++i) {
    const auto delivered = h.delivered(i);
    std::map<std::uint64_t, int> seen;
    for (const auto& [seq, tag] : delivered) seen[tag]++;
    for (const auto& [tag, count] : seen) {
      EXPECT_EQ(count, 1) << "tag " << tag << " at replica " << i;
    }
  }
}

TEST(Broadcast, BatchingGroupsCommands) {
  auto config = fast_broadcast();
  config.batch_max = 10;
  BroadcastHarness h(3, fast_net(), config);
  std::vector<Command> burst;
  for (int i = 0; i < 25; ++i) burst.push_back(cmd(static_cast<std::uint64_t>(i)));
  h.engine(0).submit(burst);
  ASSERT_TRUE(h.wait_delivered(1, 25));
  // 25 commands with batch_max 10 -> slots of size <= 10; the slot seq of
  // the first and last commands must differ (at least 3 slots).
  const auto delivered = h.delivered(1);
  EXPECT_GE(delivered.back().first - delivered.front().first + 1, 3u);
}

TEST(Broadcast, SingleReplicaCommitsAlone) {
  BroadcastHarness h(1, fast_net(), fast_broadcast());
  EXPECT_TRUE(h.engine(0).submit({cmd(7)}));
  ASSERT_TRUE(h.wait_delivered(0, 1));
  EXPECT_EQ(h.delivered(0)[0].second, 7u);
}

TEST(Broadcast, FiveReplicasToleratesTwoSilent) {
  // n = 5, f = 2: majority = 3, so commits proceed with two replicas cut
  // off from the leader.
  BroadcastHarness h(5, fast_net(), fast_broadcast());
  h.net().set_link(0, 3, false);
  h.net().set_link(0, 4, false);
  for (int i = 0; i < 50; ++i) {
    h.engine(0).submit({cmd(static_cast<std::uint64_t>(i))});
  }
  for (int i : {0, 1, 2}) {
    ASSERT_TRUE(h.wait_delivered(i, 50)) << "replica " << i;
  }
}

TEST(Broadcast, ViewChangeElectsNextLeaderAfterCrash) {
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  // Commit some traffic under leader 0.
  for (int i = 0; i < 20; ++i) {
    h.engine(0).submit({cmd(static_cast<std::uint64_t>(i))});
  }
  ASSERT_TRUE(h.wait_delivered(2, 20));

  h.net().crash(0);
  // Followers detect the silence and elect replica 1 (view 1).
  bool leader_elected = false;
  for (int t = 0; t < 1000; ++t) {
    if (h.engine(1).is_leader()) {
      leader_elected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(leader_elected);
  EXPECT_GE(h.engine(1).view(), 1u);

  // The new leader can order fresh commands and the survivors deliver them.
  for (int i = 100; i < 120; ++i) {
    EXPECT_TRUE(h.engine(1).submit({cmd(static_cast<std::uint64_t>(i))}));
  }
  ASSERT_TRUE(h.wait_delivered(1, 40));
  ASSERT_TRUE(h.wait_delivered(2, 40));

  // Survivors agree on the whole sequence.
  const auto d1 = h.delivered(1);
  const auto d2 = h.delivered(2);
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t k = 0; k < d1.size(); ++k) EXPECT_EQ(d1[k], d2[k]);
}

TEST(Broadcast, CommittedEntriesSurviveViewChange) {
  // Deliver under view 0, crash the leader, and verify nothing already
  // delivered is lost or reordered at the survivors.
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  for (int i = 0; i < 30; ++i) {
    h.engine(0).submit({cmd(static_cast<std::uint64_t>(i))});
  }
  ASSERT_TRUE(h.wait_delivered(1, 30));
  const auto before = h.delivered(1);

  h.net().crash(0);
  for (int t = 0; t < 1000 && !h.engine(1).is_leader(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(h.engine(1).is_leader());

  const auto after = h.delivered(1);
  ASSERT_GE(after.size(), before.size());
  for (std::size_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(after[k], before[k]);
  }
}

TEST(Broadcast, InstallCheckpointAdvancesWatermarkAndPrunes) {
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  for (int i = 0; i < 10; ++i) {
    h.engine(0).submit({cmd(static_cast<std::uint64_t>(i))});
  }
  ASSERT_TRUE(h.wait_delivered(1, 10));
  const std::uint64_t delivered = h.engine(1).last_delivered();
  // Install a far-future checkpoint: the watermark jumps, and slots below
  // it will never be delivered again.
  h.engine(1).install_checkpoint(delivered + 500);
  EXPECT_EQ(h.engine(1).last_delivered(), delivered + 500);
  // Stale installs are no-ops.
  h.engine(1).install_checkpoint(delivered);
  EXPECT_EQ(h.engine(1).last_delivered(), delivered + 500);
}

TEST(Broadcast, GapHandlerFiresWhenPeerIsFarAhead) {
  auto config = fast_broadcast();
  config.retained_slots = 8;
  BroadcastHarness h(3, fast_net(), config);
  std::atomic<int> gap_count{0};
  std::atomic<std::uint64_t> reported_delivered{12345};
  h.engine(2).set_gap_handler(
      [&](NodeId /*peer*/, std::uint64_t our_delivered) {
        reported_delivered = our_delivered;
        gap_count.fetch_add(1);
      });
  // Forge a heartbeat showing the leader is 100 slots ahead.
  h.engine(2).handle(h.engine_endpoint(0),
                     make_message<HeartbeatMsg>(0, 100, 0));
  EXPECT_EQ(gap_count.load(), 1);
  EXPECT_EQ(reported_delivered.load(), 0u);
  // Throttled: an immediate second report is suppressed.
  h.engine(2).handle(h.engine_endpoint(0),
                     make_message<HeartbeatMsg>(0, 101, 0));
  EXPECT_EQ(gap_count.load(), 1);
  // Within the retention window: no report even after the throttle window.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  h.engine(2).handle(h.engine_endpoint(0),
                     make_message<HeartbeatMsg>(0, 5, 0));
  EXPECT_EQ(gap_count.load(), 1);
}

// A 1 s tick with a leader timeout far above it: no view change starts, and
// a batch that waited for the tick would take a whole second.
SequencedBroadcast::Config slow_tick_broadcast() {
  SequencedBroadcast::Config config = fast_broadcast();
  config.tick_interval_ms = 1000;
  config.heartbeat_interval_ms = 1000;
  config.leader_timeout_ms = 60'000;
  return config;
}

constexpr std::uint64_t kPromptNs = 200'000'000;  // 200 ms

TEST(Broadcast, LoneSubmitIsProposedAtBatchTimeoutNotTick) {
  BroadcastHarness h(3, fast_net(), slow_tick_broadcast());
  const Stopwatch since_submit;
  ASSERT_TRUE(h.engine(0).submit({cmd(1)}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.wait_delivered(i, 1));
  EXPECT_LT(since_submit.elapsed_ns(), kPromptNs);
}

TEST(Broadcast, FullBatchIsProposedWithoutWaiting) {
  auto config = slow_tick_broadcast();
  config.batch_timeout_us = 10'000'000;  // 10 s: only batch_max can flush
  BroadcastHarness h(3, fast_net(), config);
  std::vector<Command> full;
  for (std::size_t i = 0; i < config.batch_max; ++i) full.push_back(cmd(i));
  const Stopwatch since_submit;
  ASSERT_TRUE(h.engine(0).submit(full));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.wait_delivered(i, full.size()));
  EXPECT_LT(since_submit.elapsed_ns(), kPromptNs);
}

TEST(Broadcast, BatchDeadlineReArmsForEachBatch) {
  BroadcastHarness h(3, fast_net(), slow_tick_broadcast());
  // Each submit waits for the previous delivery, so the two are spaced far
  // wider than batch_timeout_us and each opens its own batch.
  for (std::uint64_t tag = 1; tag <= 2; ++tag) {
    const Stopwatch since_submit;
    ASSERT_TRUE(h.engine(0).submit({cmd(tag)}));
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.wait_delivered(i, tag));
    EXPECT_LT(since_submit.elapsed_ns(), kPromptNs) << "submit " << tag;
  }
  const auto delivered = h.delivered(1);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_NE(delivered[0].first, delivered[1].first);
}

// Group commit: with a 10 s cap, a batch that waited for the timer would
// miss every deadline below, and broadcast.timeout_proposals would move.
constexpr std::uint64_t kCapUs = 10'000'000;

std::uint64_t timeout_proposals() {
  return MetricsRegistry::global().counter("broadcast.timeout_proposals")
      .value();
}

TEST(Broadcast, LoneSubmitIsProposedAtOnceWhenNoSlotIsInFlight) {
  auto config = slow_tick_broadcast();
  config.batch_timeout_us = kCapUs;
  BroadcastHarness h(3, fast_net(), config);
  const std::uint64_t timer_before = timeout_proposals();
  const Stopwatch since_submit;
  ASSERT_TRUE(h.engine(0).submit({cmd(1)}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.wait_delivered(i, 1));
  EXPECT_LT(since_submit.elapsed_ns(), kPromptNs);
  EXPECT_EQ(timeout_proposals(), timer_before);
}

// 2 ms one-way links: a round takes at least 4 ms, far longer than a
// submit, so commands submitted back to back find the first slot in flight.
SimNetwork::Config slow_net() {
  SimNetwork::Config config;
  config.base_latency_us = 2000;
  config.jitter_us = 20;
  return config;
}

TEST(Broadcast, SubmitDuringInFlightSlotIsProposedWhenItCommits) {
  auto config = slow_tick_broadcast();
  config.batch_timeout_us = kCapUs;
  BroadcastHarness h(3, slow_net(), config);
  const std::uint64_t timer_before = timeout_proposals();
  const Stopwatch since_submit;
  ASSERT_TRUE(h.engine(0).submit({cmd(1)}));
  ASSERT_TRUE(h.engine(0).submit({cmd(2)}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.wait_delivered(i, 2));
  EXPECT_LT(since_submit.elapsed_ns(), kPromptNs);
  const auto delivered = h.delivered(1);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_LT(delivered[0].first, delivered[1].first);
  EXPECT_EQ(timeout_proposals(), timer_before);
}

TEST(Broadcast, SubmitsDuringSlowRoundShareFewSlots) {
  // The first command goes out alone; the rest wait for its round and go
  // out together, so batching still groups a burst of single submits.
  auto config = slow_tick_broadcast();
  config.batch_timeout_us = kCapUs;
  BroadcastHarness h(3, slow_net(), config);
  constexpr std::size_t kCommands = 30;
  for (std::size_t i = 0; i < kCommands; ++i) {
    ASSERT_TRUE(h.engine(0).submit({cmd(i)}));
  }
  ASSERT_TRUE(h.wait_delivered(1, kCommands));
  const auto delivered = h.delivered(1);
  EXPECT_LE(delivered.back().first - delivered.front().first + 1, 3u);
}

TEST(Broadcast, NewLeaderProposesAtOnceAfterViewChange) {
  // Heartbeats go out once a 1 s tick, so the followers' timeout allows for
  // a late one.
  auto config = slow_tick_broadcast();
  config.batch_timeout_us = kCapUs;
  config.leader_timeout_ms = 2500;
  BroadcastHarness h(3, slow_net(), config);
  ASSERT_TRUE(h.engine(0).submit({cmd(1)}));
  ASSERT_TRUE(h.engine(0).submit({cmd(2)}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.wait_delivered(i, 2));

  h.net().crash(h.engine_endpoint(0));
  for (int t = 0; t < 2000 && !h.engine(1).is_leader(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(h.engine(1).is_leader());
  const std::uint64_t timer_before = timeout_proposals();
  for (std::uint64_t tag = 3; tag <= 4; ++tag) {
    const Stopwatch since_submit;
    // The second submit of each pair finds the first one's slot in flight.
    ASSERT_TRUE(h.engine(1).submit({cmd(tag * 10)}));
    ASSERT_TRUE(h.engine(1).submit({cmd(tag * 10 + 1)}));
    const std::size_t count = 2 * (tag - 1);
    for (int i : {1, 2}) ASSERT_TRUE(h.wait_delivered(i, count));
    EXPECT_LT(since_submit.elapsed_ns(), kPromptNs) << "pair " << tag;
  }
  EXPECT_EQ(timeout_proposals(), timer_before);
}

// Cuts (or restores) every link of replica i.
void isolate(BroadcastHarness& h, int i, bool cut) {
  for (int j = 0; j < h.size(); ++j) {
    if (j != i) h.net().set_link(h.engine_endpoint(i), h.engine_endpoint(j), !cut);
  }
}

TEST(Broadcast, LeaderThatStepsDownAndLeadsAgainProposesAtOnce) {
  // Replica 0 leads view 0 and is cut off with a slot in flight that never
  // commits. Views 1 and 2 pass to replicas 1 and 2, and replica 0 leads
  // again in view 3: nothing it had in flight in view 0 may hold back its
  // new proposals. Fast ticks keep the three view changes short; the 10 s
  // cap still exposes any proposal that waits for the timer.
  auto config = fast_broadcast();
  config.batch_timeout_us = kCapUs;
  BroadcastHarness h(3, fast_net(), config);
  const auto wait_until = [](const auto& done) {
    for (int t = 0; t < 2000 && !done(); ++t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done();
  };
  const auto wait_leader = [&](int i) {
    return wait_until([&] { return h.engine(i).is_leader(); });
  };
  // Engine i left view v, so it will not start a view change of its own.
  const auto wait_view = [&](int i, std::uint64_t v) {
    return wait_until([&] { return h.engine(i).view() >= v; });
  };
  ASSERT_TRUE(h.engine(0).submit({cmd(1)}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.wait_delivered(i, 1));

  isolate(h, 0, true);
  ASSERT_TRUE(h.engine(0).submit({cmd(2)}));  // in flight for good
  ASSERT_TRUE(h.engine(0).submit({cmd(3)}));  // waits behind it
  ASSERT_TRUE(wait_leader(1));
  isolate(h, 0, false);
  ASSERT_TRUE(wait_view(0, 1));

  isolate(h, 1, true);
  ASSERT_TRUE(wait_leader(2));
  isolate(h, 1, false);
  ASSERT_TRUE(wait_view(1, 2));
  isolate(h, 2, true);
  ASSERT_TRUE(wait_leader(0));
  EXPECT_EQ(h.engine(0).view(), 3u);

  // View 3 may re-propose command 2; commands 4 and 5 must follow promptly.
  const auto delivered_tags = [&](int i) {
    std::set<std::uint64_t> tags;
    for (const auto& [seq, tag] : h.delivered(i)) tags.insert(tag);
    return tags.count(4) + tags.count(5);
  };
  const std::uint64_t timer_before = timeout_proposals();
  const Stopwatch since_submit;
  ASSERT_TRUE(h.engine(0).submit({cmd(4)}));
  ASSERT_TRUE(h.engine(0).submit({cmd(5)}));
  for (int i : {0, 1}) {
    EXPECT_TRUE(wait_until([&] { return delivered_tags(i) == 2; }))
        << "replica " << i;
  }
  EXPECT_LT(since_submit.elapsed_ns(), kPromptNs);
  EXPECT_EQ(timeout_proposals(), timer_before);
}

TEST(Broadcast, CascadedViewChangeSkipsDeadLeaders) {
  // Crash replicas 0 and 1 in a 5-replica group: view must advance past
  // view 1 (whose leader is also dead) to view 2.
  BroadcastHarness h(5, fast_net(), fast_broadcast());
  for (int i = 0; i < 10; ++i) {
    h.engine(0).submit({cmd(static_cast<std::uint64_t>(i))});
  }
  ASSERT_TRUE(h.wait_delivered(4, 10));
  h.net().crash(0);
  h.net().crash(1);
  bool elected = false;
  for (int t = 0; t < 2000; ++t) {
    if (h.engine(2).is_leader()) {
      elected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(elected);
  EXPECT_GE(h.engine(2).view(), 2u);
  EXPECT_TRUE(h.engine(2).submit({cmd(999)}));
  ASSERT_TRUE(h.wait_delivered(3, 11));
}

// Submits one command at the leader and waits until every replica has
// delivered it, so each round's ACCEPTED carries a settled watermark.
void submit_round(BroadcastHarness& h, std::uint64_t tag,
                  std::vector<std::size_t>& expected) {
  ASSERT_TRUE(h.engine(0).submit({cmd(tag)}));
  for (int r = 0; r < h.size(); ++r) {
    ASSERT_TRUE(h.wait_delivered(r, ++expected[static_cast<std::size_t>(r)]))
        << "replica " << r;
  }
}

TEST(Broadcast, LogHoldsOnlyUnstableSlotsWhileAllReplicasDeliver) {
  // Slots go once every replica has delivered them, so the log stays a few
  // slots long however many batches pass (the retained_slots cap of 1024
  // is never reached).
  auto config = fast_broadcast();
  config.batch_max = 1;  // one slot per command
  BroadcastHarness h(3, fast_net(), config);
  constexpr std::size_t kBatches = 2000;
  for (std::size_t i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(h.engine(0).submit({cmd(i)}));
  }
  std::vector<std::size_t> expected(3, kBatches);
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(h.wait_delivered(r, kBatches, 30000)) << "replica " << r;
  }
  // The burst's watermarks were reported mid-flight; a few settled rounds
  // carry current ones.
  for (std::uint64_t i = 0; i < 3; ++i) submit_round(h, kBatches + i, expected);
  for (int r = 0; r < 3; ++r) {
    EXPECT_LE(h.engine(r).log_slots(), 4u) << "replica " << r;
  }
}

TEST(Broadcast, PartitionedFollowerCapsLogAtRetainedSlotsUntilItCatchesUp) {
  // A cut-off follower stalls stability, so retained_slots bounds the log
  // exactly as it would without stability pruning. Once the follower is
  // back and caught up (by a checkpoint install, as the SMR layer does on
  // a gap report), the log shrinks again.
  auto config = fast_broadcast();
  config.batch_max = 1;
  config.retained_slots = 64;
  config.leader_timeout_ms = 100'000;  // the cut-off follower must not
                                       // start view changes
  BroadcastHarness h(3, fast_net(), config);
  std::atomic<bool> gap{false};
  h.engine(2).set_gap_handler([&](NodeId, std::uint64_t) { gap = true; });
  h.net().set_link(h.engine_endpoint(0), h.engine_endpoint(2), false);
  h.net().set_link(h.engine_endpoint(1), h.engine_endpoint(2), false);

  constexpr std::size_t kBatches = 500;
  for (std::size_t i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(h.engine(0).submit({cmd(i)}));
  }
  ASSERT_TRUE(h.wait_delivered(0, kBatches));
  ASSERT_TRUE(h.wait_delivered(1, kBatches));
  // Delivered slots back to retained_slots behind the watermark, no more.
  EXPECT_EQ(h.engine(0).log_slots(), config.retained_slots + 1);
  EXPECT_EQ(h.engine(1).log_slots(), config.retained_slots + 1);
  EXPECT_EQ(h.engine(2).last_delivered(), 0u);

  h.net().set_link(h.engine_endpoint(0), h.engine_endpoint(2), true);
  h.net().set_link(h.engine_endpoint(1), h.engine_endpoint(2), true);
  ASSERT_TRUE(h.engine(0).submit({cmd(kBatches)}));
  ASSERT_TRUE(h.wait_delivered(0, kBatches + 1));
  for (int t = 0; t < 1000 && !gap.load(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(gap.load()) << "the healed follower never reported its gap";
  h.engine(2).install_checkpoint(h.engine(0).last_delivered());

  std::vector<std::size_t> expected{kBatches + 1, kBatches + 1, 0};
  for (std::uint64_t i = 1; i <= 3; ++i) {
    submit_round(h, kBatches + i, expected);
  }
  for (int r = 0; r < 3; ++r) {
    EXPECT_LE(h.engine(r).log_slots(), 4u) << "replica " << r;
  }
}

TEST(Broadcast, StableBeyondOwnWatermarkFiresGapHandler) {
  // Every replica has delivered slot 5, yet this one has delivered nothing:
  // it is a restarted incarnation. Slot 5 is only 5 slots ahead, well
  // inside retained_slots, but nobody keeps it, so the replica must ask for
  // state transfer instead of waiting.
  BroadcastHarness h(3, fast_net(), fast_broadcast());
  std::atomic<int> gap_count{0};
  std::atomic<NodeId> reported_peer{-1};
  h.engine(2).set_gap_handler([&](NodeId peer, std::uint64_t) {
    reported_peer = peer;
    gap_count.fetch_add(1);
  });
  h.engine(2).handle(h.engine_endpoint(0),
                     make_message<HeartbeatMsg>(0, 5, 5));
  EXPECT_EQ(gap_count.load(), 1);
  EXPECT_EQ(reported_peer.load(), h.engine_endpoint(0));
}

}  // namespace
}  // namespace psmr
