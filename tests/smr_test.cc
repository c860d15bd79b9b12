// End-to-end SMR integration tests: full deployments (simulated network +
// sequenced broadcast + replicas + closed-loop clients) for all scheduler
// kinds and the sequential baseline, checking liveness, replica
// convergence, at-most-once execution, the bank-conservation invariant, and
// leader-crash recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "app/bank_service.h"
#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "smr/deployment.h"
#include "workload/generator.h"

namespace psmr {
namespace {

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
  config.leader_timeout_ms = 250;
  config.tick_interval_ms = 1;
  return config;
}

Deployment::Config make_config(SchedulerPolicy policy, CosKind kind,
                               int workers) {
  Deployment::Config config;
  config.replicas = 3;
  config.net = fast_net();
  config.replica.policy = policy;
  config.replica.cos.kind = kind;
  config.replica.workers = workers;
  config.replica.broadcast = fast_broadcast();
  return config;
}

// Waits until every running replica executed at least `count` commands.
bool wait_executed(Deployment& deployment, std::uint64_t count,
                   int timeout_ms = 10000) {
  for (int t = 0; t < timeout_ms / 5; ++t) {
    bool all = true;
    for (int i = 0; i < deployment.replica_count(); ++i) {
      if (deployment.net().crashed(deployment.replica(i).endpoint())) continue;
      if (deployment.replica(i).executed_count() < count) all = false;
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

struct SmrParam {
  SchedulerPolicy policy;
  CosKind kind;
  int workers;
};

std::string smr_param_name(const ::testing::TestParamInfo<SmrParam>& info) {
  if (info.param.policy == SchedulerPolicy::kSequential) return "Sequential";
  std::string name;
  switch (info.param.kind) {
    case CosKind::kCoarseGrained:
      name = "CoarseGrained";
      break;
    case CosKind::kFineGrained:
      name = "FineGrained";
      break;
    case CosKind::kLockFree:
      name = "LockFree";
      break;
  }
  if (info.param.policy == SchedulerPolicy::kEarlyScheduling) {
    name = "Early" + name;
  }
  return name + "_w" + std::to_string(info.param.workers);
}

class SmrEndToEndTest : public ::testing::TestWithParam<SmrParam> {};

TEST_P(SmrEndToEndTest, ClientsCompleteAndReplicasConverge) {
  const SmrParam param = GetParam();
  static constexpr std::size_t kListSize = 200;
  Deployment deployment(
      make_config(param.policy, param.kind, param.workers),
      [] { return std::make_unique<LinkedListService>(kListSize); });

  // 4 clients, mixed workload with writes so convergence is meaningful.
  std::vector<std::unique_ptr<Xoshiro256>> rngs;
  for (int c = 0; c < 4; ++c) {
    auto rng = std::make_unique<Xoshiro256>(100 + static_cast<unsigned>(c));
    Xoshiro256* r = rng.get();
    rngs.push_back(std::move(rng));
    SmrClient::Config client_config;
    client_config.pipeline = 4;
    deployment.add_client(client_config, [r] {
      const std::uint64_t v = r->below(kListSize);
      return r->uniform() < 0.2 ? LinkedListService::make_add(v)
                                : LinkedListService::make_contains(v);
    });
  }

  deployment.start();
  // Let the system run until clients completed a solid batch of commands.
  for (int t = 0; t < 2000 && deployment.total_client_completed() < 800; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t completed = deployment.total_client_completed();
  EXPECT_GE(completed, 800u) << "system did not make progress";

  // Quiesce: stop clients, let every replica finish executing everything
  // that was ordered, then compare state digests.
  for (SmrClient* client : deployment.clients()) client->drain(3000);
  ASSERT_TRUE(wait_executed(deployment,
                            deployment.replica(0).executed_count()));
  // Give stragglers a moment to drain their last batch.
  for (int t = 0; t < 600; ++t) {
    if (deployment.states_converged()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(deployment.states_converged());
  deployment.stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SmrEndToEndTest,
    ::testing::Values(
        SmrParam{SchedulerPolicy::kSequential, CosKind::kLockFree, 0},
        SmrParam{SchedulerPolicy::kCosDag, CosKind::kCoarseGrained, 4},
        SmrParam{SchedulerPolicy::kCosDag, CosKind::kFineGrained, 4},
        SmrParam{SchedulerPolicy::kCosDag, CosKind::kLockFree, 4},
        SmrParam{SchedulerPolicy::kCosDag, CosKind::kLockFree, 8},
        SmrParam{SchedulerPolicy::kEarlyScheduling, CosKind::kLockFree, 2},
        SmrParam{SchedulerPolicy::kEarlyScheduling, CosKind::kLockFree, 4}),
    smr_param_name);

// Runs under both the DAG and early-scheduling policies: the transfer mix
// includes cross-class transfers (accounts in different classes), which
// exercise the early scheduler's barrier path end to end.
void run_bank_conservation(SchedulerPolicy policy) {
  static constexpr std::size_t kAccounts = 32;
  static constexpr std::uint64_t kInitial = 1000;
  Deployment deployment(
      make_config(policy, CosKind::kLockFree, 4), [] {
        return std::make_unique<BankService>(kAccounts, kInitial);
      });
  Xoshiro256 rng(7);
  SmrClient::Config client_config;
  client_config.pipeline = 8;
  deployment.add_client(client_config, [&rng] {
    const std::uint64_t from = rng.below(kAccounts);
    std::uint64_t to = rng.below(kAccounts);
    if (to == from) to = (to + 1) % kAccounts;
    if (rng.uniform() < 0.7) {
      return BankService::make_transfer(from, to, rng.below(50));
    }
    return BankService::make_balance(from);
  });

  deployment.start();
  for (int t = 0; t < 2000 && deployment.total_client_completed() < 500; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(deployment.total_client_completed(), 500u);
  for (SmrClient* client : deployment.clients()) client->drain(3000);

  for (int t = 0; t < 600 && !deployment.states_converged(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(deployment.states_converged());
  // Stop (joining every replica thread) before reading service state
  // directly, so the reads cannot race with a straggling execution.
  deployment.stop();
  for (int i = 0; i < deployment.replica_count(); ++i) {
    const auto& bank =
        static_cast<const BankService&>(deployment.replica(i).service());
    EXPECT_EQ(bank.total_balance(), kAccounts * kInitial)
        << "money not conserved at replica " << i;
  }
}

TEST(SmrBank, TransfersConserveMoneyAcrossReplicas) {
  run_bank_conservation(SchedulerPolicy::kCosDag);
}

TEST(SmrBank, TransfersConserveMoneyUnderEarlyScheduling) {
  run_bank_conservation(SchedulerPolicy::kEarlyScheduling);
}

TEST(SmrKv, PerKeyConflictsStillLinearizePerKey) {
  Deployment deployment(make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 4),
                        [] { return std::make_unique<KvService>(); });
  // Single client writing an increasing counter to one key; the replicas
  // must all end with the final value.
  KvService builder;  // only for command construction
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 1;  // strictly ordered per client
  deployment.add_client(client_config, [&] {
    const std::uint64_t v = next.fetch_add(1);
    return builder.make_put(42, v);
  });
  deployment.start();
  for (int t = 0; t < 2000 && deployment.total_client_completed() < 200; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), 200u);
  for (SmrClient* client : deployment.clients()) client->drain(3000);
  for (int t = 0; t < 600 && !deployment.states_converged(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(deployment.states_converged());
  // Stop (joining every replica thread) before touching the service
  // directly, so the probe get() cannot race with a straggling execution.
  deployment.stop();
  const auto& kv =
      static_cast<const KvService&>(deployment.replica(0).service());
  const Response r =
      const_cast<KvService&>(kv).execute(builder.make_get(42));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, deployment.total_client_completed() - 1)
      << "lost or reordered update on key 42";
}

TEST(SmrFaultTolerance, ServiceSurvivesLeaderCrash) {
  static constexpr std::size_t kListSize = 100;
  Deployment deployment(
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 4),
      [] { return std::make_unique<LinkedListService>(kListSize); });
  Xoshiro256 rng(3);
  SmrClient::Config client_config;
  client_config.pipeline = 2;
  client_config.resend_timeout_ms = 400;
  deployment.add_client(client_config, [&rng] {
    const std::uint64_t v = rng.below(kListSize);
    return rng.uniform() < 0.2 ? LinkedListService::make_add(v)
                               : LinkedListService::make_contains(v);
  });
  deployment.start();

  for (int t = 0; t < 2000 && deployment.total_client_completed() < 100; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), 100u);

  // Crash the leader (replica 0 in view 0).
  deployment.replica(0).crash();

  // The client stalls until the view change, then progresses again.
  const std::uint64_t before = deployment.total_client_completed();
  bool progressed = false;
  for (int t = 0; t < 4000; ++t) {
    if (deployment.total_client_completed() >= before + 100) {
      progressed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(progressed) << "no progress after leader crash";

  for (SmrClient* client : deployment.clients()) client->drain(3000);
  for (int t = 0; t < 600 && !deployment.states_converged(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(deployment.states_converged());  // survivors agree
  deployment.stop();
}

TEST(SmrStateTransfer, PartitionedReplicaCatchesUpViaCheckpoint) {
  // Partition replica 2 away from everyone, push the system far beyond the
  // broadcast log retention, heal the partition, and verify replica 2
  // catches up through a checkpoint (state transfer), converging to the
  // same state.
  static constexpr std::size_t kListSize = 100;
  Deployment::Config config = make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2);
  config.replica.broadcast.retained_slots = 16;  // small window for the test
  config.replica.broadcast.batch_max = 4;        // many slots
  config.replica.broadcast.leader_timeout_ms = 100000;  // replica 2 must not
                                                        // trigger view changes
  Deployment deployment(
      config, [] { return std::make_unique<LinkedListService>(0); });
  std::atomic<std::uint64_t> next{1};
  SmrClient::Config client_config;
  client_config.pipeline = 4;
  deployment.add_client(client_config, [&] {
    return LinkedListService::make_add(next.fetch_add(1) % kListSize);
  });
  deployment.start();

  // Cut replica 2 off.
  const NodeId lagging = deployment.replica(2).endpoint();
  deployment.net().set_link(deployment.replica(0).endpoint(), lagging, false);
  deployment.net().set_link(deployment.replica(1).endpoint(), lagging, false);

  // Run well past the retention window (16 slots * batch 4 = 64 commands).
  for (int t = 0; t < 4000 && deployment.total_client_completed() < 600; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), 600u);
  EXPECT_LT(deployment.replica(2).executed_count(), 100u);

  // Heal and wait for catch-up.
  deployment.net().set_link(deployment.replica(0).endpoint(), lagging, true);
  deployment.net().set_link(deployment.replica(1).endpoint(), lagging, true);

  bool transferred = false;
  for (int t = 0; t < 2000; ++t) {
    if (deployment.replica(2).state_transfers() > 0) {
      transferred = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(transferred) << "no state transfer happened";

  for (SmrClient* client : deployment.clients()) client->drain(3000);
  bool converged = false;
  for (int t = 0; t < 1000 && !converged; ++t) {
    converged = deployment.states_converged();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(converged) << "lagging replica did not converge after "
                            "state transfer";
  deployment.stop();
}

TEST(SmrClientTeardown, DestroyWithRepliesInFlightIsSafe) {
  // Regression test for a teardown race: destroying a client while replies
  // are still in flight used to leave its transport handler registered, so
  // a reply delivered mid-destruction ran handle_message on a dying object
  // (use-after-free, caught by ASan/TSan pre-fix). The destructor now
  // deregisters the endpoint first; the transport guarantees no handler is
  // running or will run once remove_endpoint returns.
  //
  // The network is deliberately slow: with a multi-ms one-way latency,
  // replies to the 8 pipelined commands keep arriving for milliseconds
  // after the destructor returns, so a still-registered handler would run
  // on freed memory.
  Deployment::Config config = make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 4);
  config.net.base_latency_us = 3000;
  config.net.jitter_us = 2000;
  Deployment deployment(config,
                        [] { return std::make_unique<KvService>(); });
  deployment.start();

  KvService builder;
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::uint64_t> next{0};
    SmrClient::Config client_config;
    client_config.pipeline = 8;          // keep many replies in flight
    client_config.tick_interval_ms = 1;  // dtor joins the timer quickly
    std::vector<NodeId> replicas;
    for (int i = 0; i < deployment.replica_count(); ++i) {
      replicas.push_back(deployment.replica(i).endpoint());
    }
    auto client = std::make_unique<SmrClient>(
        deployment.net(), replicas, client_config,
        [&] { return builder.make_put(next.fetch_add(1) % 32, 1); });
    client->start();
    // Destroy mid-traffic — no stop(), no drain(): with 3 replicas each
    // answering 8 pipelined commands there are always replies in flight.
    for (int t = 0; t < 1000 && client->completed() < 20; ++t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(client->completed(), 20u);
    client.reset();
  }
  deployment.stop();
}

TEST(SmrClientTeardown, DestructorDoesNotWaitOutTimerTick) {
  // Regression test for shutdown latency: the timer thread used to sleep
  // for a full tick_interval_ms between resend scans, so the destructor
  // blocked on join() for up to one tick. It now waits on a condition
  // variable the destructor signals.
  Deployment deployment(make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2),
                        [] { return std::make_unique<KvService>(); });
  deployment.start();

  KvService builder;
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 2;
  client_config.tick_interval_ms = 3000;  // pre-fix: dtor stalls ~3 s
  std::vector<NodeId> replicas;
  for (int i = 0; i < deployment.replica_count(); ++i) {
    replicas.push_back(deployment.replica(i).endpoint());
  }
  auto client = std::make_unique<SmrClient>(
      deployment.net(), replicas, client_config,
      [&] { return builder.make_put(next.fetch_add(1) % 32, 1); });
  client->start();
  for (int t = 0; t < 1000 && client->completed() < 5; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(client->completed(), 5u);

  const std::uint64_t start_ns = now_ns();
  client.reset();
  const std::uint64_t elapsed_ms = (now_ns() - start_ns) / 1'000'000ull;
  EXPECT_LT(elapsed_ms, 1000u)
      << "client destructor waited out the timer tick";
  deployment.stop();
}

TEST(SmrDedup, RetransmissionsExecuteAtMostOnce) {
  // A pipeline-1 client with an aggressive resend timer: even when requests
  // are retransmitted (and re-answered from the reply cache), each add must
  // execute exactly once — otherwise the list size would drift.
  static constexpr std::size_t kListSize = 16;
  Deployment deployment(
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2),
      [] { return std::make_unique<LinkedListService>(0); });
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 1;
  client_config.resend_timeout_ms = 1;  // pathological: resend every tick
  client_config.tick_interval_ms = 1;
  deployment.add_client(client_config, [&] {
    return LinkedListService::make_add(next.fetch_add(1));
  });
  deployment.start();
  for (int t = 0; t < 2000 && deployment.total_client_completed() < kListSize;
       ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), kListSize);
  for (SmrClient* client : deployment.clients()) client->drain(3000);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const std::uint64_t issued = next.load();
  // Stop (joining every replica thread) before reading service state
  // directly, so the reads cannot race with a straggling retransmission.
  deployment.stop();
  for (int i = 0; i < deployment.replica_count(); ++i) {
    const auto& list = static_cast<const LinkedListService&>(
        deployment.replica(i).service());
    // Every add was of a distinct value: size == number of distinct adds
    // executed. With at-most-once this is <= issued and >= completed.
    EXPECT_LE(list.size(), issued);
    EXPECT_EQ(list.size(), deployment.replica(i).executed_count())
        << "duplicate execution at replica " << i;
  }
}

TEST(SmrDedup, ReplyCacheRingAnswersOnlyRetransmissionsInsideTheWindow) {
  // A raw endpoint plays a client that runs three reply-cache windows of
  // commands, so every ring entry has been overwritten twice. Odd seqs put
  // a key and even seqs read the key just put: every get's reply value is
  // distinct, so a cached reply can be told from a recomputed one.
  constexpr std::uint64_t kWindow = Replica::kReplyCacheWindow;
  constexpr std::uint64_t kCommands = 3 * kWindow;
  Deployment deployment(
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2),
      [] { return std::make_unique<KvService>(); });
  const KvService builder;
  auto command = [&](std::uint64_t seq) {
    Command c = seq % 2 == 1 ? builder.make_put(seq, seq * 1000 + 3)
                             : builder.make_get(seq - 1);
    c.client_seq = seq;
    return c;
  };

  std::mutex mu;  // NOLINT(psmr-raw-mutex) test-local reply log, never nested
  // Guarded by mu: (value, ok) by client_seq, in arrival order.
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, bool>>>
      replies;
  auto replies_for = [&](std::uint64_t seq) {
    std::lock_guard lock(mu);
    return replies[seq];
  };
  Transport& net = deployment.net();
  const NodeId client = net.add_endpoint([&](NodeId, MessagePtr m) {
    if (m->type != msg::kReply) return;
    const auto& reply = message_as<ReplyMsg>(m);
    std::lock_guard lock(mu);
    replies[reply.client_seq].emplace_back(reply.value, reply.ok);
  });
  deployment.start();
  auto send = [&](int replica, std::vector<Command> cmds) {
    net.send(client, deployment.replica(replica).endpoint(),
             make_message<RequestMsg>(std::move(cmds)));
  };

  // In order over FIFO links, so no seq arrives after a higher one.
  constexpr std::uint64_t kChunk = 64;
  for (std::uint64_t first = 1; first <= kCommands; first += kChunk) {
    std::vector<Command> chunk;
    for (std::uint64_t seq = first; seq < first + kChunk; ++seq) {
      chunk.push_back(command(seq));
    }
    for (int r = 0; r < deployment.replica_count(); ++r) send(r, chunk);
  }
  ASSERT_TRUE(wait_executed(deployment, kCommands));
  const auto all_replies_in = [&] {
    std::lock_guard lock(mu);
    for (std::uint64_t seq = 1; seq <= kCommands; ++seq) {
      if (replies[seq].size() < 3) return false;
    }
    return true;
  };
  for (int t = 0; t < 1000 && !all_replies_in(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(all_replies_in());
  std::vector<std::uint64_t> executed;
  for (int r = 0; r < deployment.replica_count(); ++r) {
    executed.push_back(deployment.replica(r).executed_count());
    EXPECT_EQ(executed.back(), kCommands);
  }
  Counter& cache_hits =
      MetricsRegistry::global().counter("replica.reply_cache_hits");
  Counter& dedup_hits =
      MetricsRegistry::global().counter("scheduler.dedup_hits");

  // A recent seq: replica 0 answers from its ring with the original reply.
  const std::uint64_t recent = kCommands - 2;  // a get
  const auto original = replies_for(recent).front();
  EXPECT_EQ(original, std::make_pair((recent - 1) * 1000 + 3, true));
  const std::uint64_t hits_before = cache_hits.value();
  send(0, {command(recent)});
  for (int t = 0; t < 1000 && replies_for(recent).size() < 4; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(replies_for(recent).size(), 4u);
  EXPECT_EQ(replies_for(recent).back(), original);
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(cache_hits.value(), hits_before + 1);
  }

  // A seq whose entry a newer command took over: no cached reply, so it is
  // ordered again, and the at-most-once filter drops it unexecuted.
  const std::uint64_t old = 2;
  const std::uint64_t dedup_before = dedup_hits.value();
  for (int r = 0; r < deployment.replica_count(); ++r) send(r, {command(old)});
  if constexpr (kMetricsEnabled) {
    for (int t = 0; t < 1000 && dedup_hits.value() < dedup_before + 3; ++t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(dedup_hits.value(), dedup_before + 3);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(replies_for(old).size(), 3u);
  for (int r = 0; r < deployment.replica_count(); ++r) {
    EXPECT_EQ(deployment.replica(r).executed_count(),
              executed[static_cast<std::size_t>(r)])
        << "replica " << r;
  }
  net.remove_endpoint(client);
  deployment.stop();
}

TEST(SmrDedup, SeqOrderedAfterAHigherOneStillExecutes) {
  // A pipelined client's seq 1 can be ordered after its seq 2 (lost on the
  // way to the leader, or dropped with a pending batch at a view change).
  // It was never inserted, so it must execute and be answered.
  Deployment deployment(
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2),
      [] { return std::make_unique<KvService>(); });
  const KvService builder;
  std::mutex mu;  // NOLINT(psmr-raw-mutex) test-local reply log, never nested
  std::map<std::uint64_t, std::size_t> replies;  // guarded by mu, by seq
  auto replies_for = [&](std::uint64_t seq) {
    std::lock_guard lock(mu);
    return replies[seq];
  };
  Transport& net = deployment.net();
  const NodeId client = net.add_endpoint([&](NodeId, MessagePtr m) {
    if (m->type != msg::kReply) return;
    std::lock_guard lock(mu);
    ++replies[message_as<ReplyMsg>(m).client_seq];
  });
  deployment.start();
  // Sends one request carrying `copies` copies of seq to every replica.
  auto send_to_all = [&](std::uint64_t seq, std::size_t copies = 1) {
    Command c = builder.make_put(seq, seq);
    c.client_seq = seq;
    for (int r = 0; r < deployment.replica_count(); ++r) {
      net.send(client, deployment.replica(r).endpoint(),
               make_message<RequestMsg>(std::vector<Command>(copies, c)));
    }
  };
  const auto wait_replies = [&](std::uint64_t seq, std::size_t count) {
    for (int t = 0; t < 1000 && replies_for(seq) < count; ++t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return replies_for(seq);
  };

  send_to_all(2);
  EXPECT_EQ(wait_replies(2, 3), 3u);
  send_to_all(1);
  EXPECT_EQ(wait_replies(1, 3), 3u);

  // A retransmission of seq 1 is answered from the reply cache.
  Counter& cache_hits =
      MetricsRegistry::global().counter("replica.reply_cache_hits");
  const std::uint64_t hits_before = cache_hits.value();
  send_to_all(1);
  EXPECT_EQ(wait_replies(1, 6), 6u);
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(cache_hits.value(), hits_before + 3);
  }

  // Below the highest seq, a seq inserted once is dropped the second time:
  // two copies of seq 3 are ordered together, and each replica executes
  // the first and drops the second.
  Counter& dedup_hits =
      MetricsRegistry::global().counter("scheduler.dedup_hits");
  const std::uint64_t dedup_before = dedup_hits.value();
  send_to_all(4);
  EXPECT_EQ(wait_replies(4, 3), 3u);
  send_to_all(3, 2);
  EXPECT_EQ(wait_replies(3, 3), 3u);
  ASSERT_TRUE(wait_executed(deployment, 4));
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(dedup_hits.value(), dedup_before + 3);
  }

  // Each executed once.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(replies_for(3), 3u);
  for (int r = 0; r < deployment.replica_count(); ++r) {
    EXPECT_EQ(deployment.replica(r).executed_count(), 4u) << "replica " << r;
  }
  net.remove_endpoint(client);
  deployment.stop();
}

TEST(SmrGroupCommit, PipelinedClientCompletesWithoutWaitingForTheCap) {
  // With a 10 s batch cap, every batch that waited for the timer would
  // stall the client for 10 s: the leader must propose on its own.
  constexpr std::uint64_t kCommands = 200;
  Deployment::Config config =
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2);
  config.replica.broadcast.batch_timeout_us = 10'000'000;
  Deployment deployment(config, [] { return std::make_unique<KvService>(); });
  const KvService builder;
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 8;
  deployment.add_client(client_config, [&] {
    return builder.make_put(next.fetch_add(1) % 32, 1);
  });
  Counter& timer_proposals =
      MetricsRegistry::global().counter("broadcast.timeout_proposals");
  const std::uint64_t timer_before = timer_proposals.value();
  const Stopwatch since_start;
  deployment.start();
  for (int t = 0; t < 1000 && deployment.total_client_completed() < kCommands;
       ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(deployment.total_client_completed(), kCommands);
  EXPECT_LT(since_start.elapsed_ns(), 5'000'000'000u);
  EXPECT_EQ(timer_proposals.value(), timer_before);
  deployment.stop();
}

}  // namespace
}  // namespace psmr
