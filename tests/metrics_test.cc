// Unit tests for the unified metrics layer (common/metrics.h) plus
// end-to-end checks that a running deployment actually moves the counters
// every layer registers. Every assertion on metric values is gated on
// kMetricsEnabled so this binary also compiles and passes in a
// PSMR_METRICS=OFF build, where the same tests prove the no-op contract
// (all reads are zero, snapshots are empty).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_service.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "smr/deployment.h"

namespace psmr {
namespace {

TEST(MetricsCounter, SumsIncrementsAcrossManyThreads) {
  Counter& counter =
      MetricsRegistry::global().counter("test.counter.threads");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
  } else {
    EXPECT_EQ(counter.value(), 0u);
  }
}

TEST(MetricsCounter, DeltaIncrements) {
  Counter& counter = MetricsRegistry::global().counter("test.counter.delta");
  counter.inc(5);
  counter.inc(37);
  EXPECT_EQ(counter.value(), kMetricsEnabled ? 42u : 0u);
}

TEST(MetricsGauge, TracksAddSubSet) {
  Gauge& gauge = MetricsRegistry::global().gauge("test.gauge");
  gauge.set(10);
  gauge.add(5);
  gauge.sub(7);
  EXPECT_EQ(gauge.value(), kMetricsEnabled ? 8 : 0);
}

TEST(MetricsRegistryTest, SameNameYieldsSameMetric) {
  Counter& a = MetricsRegistry::global().counter("test.registry.same");
  Counter& b = MetricsRegistry::global().counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), kMetricsEnabled ? 1u : 0u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &done] {
      for (int i = 0; i < 50; ++i) {
        const std::string name =
            "test.registry.race." + std::to_string(i % 10);
        MetricsRegistry::global().counter(name).inc();
        MetricsRegistry::global().gauge(name + ".g").add(t);
      }
      done.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(done.load(), 8);
  if constexpr (kMetricsEnabled) {
    // 8 threads x 5 hits per distinct name.
    EXPECT_EQ(MetricsRegistry::global().snapshot().counter(
                  "test.registry.race.0"),
              40u);
  }
}

TEST(MetricsSnapshotTest, ReflectsRegisteredValues) {
  MetricsRegistry::global().counter("test.snap.counter").inc(123);
  MetricsRegistry::global().gauge("test.snap.gauge").set(-4);
  HistogramMetric& hist =
      MetricsRegistry::global().histogram("test.snap.hist");
  for (std::uint64_t v = 1; v <= 100; ++v) hist.record(v);

  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(snap.counter("test.snap.counter"), 123u);
    EXPECT_EQ(snap.gauge("test.snap.gauge"), -4);
    ASSERT_TRUE(snap.histograms.contains("test.snap.hist"));
    const MetricsSnapshot::HistStats& stats =
        snap.histograms.at("test.snap.hist");
    EXPECT_EQ(stats.count, 100u);
    EXPECT_GT(stats.mean, 0.0);
    EXPECT_GE(stats.max, stats.p50);
  } else {
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.counter("test.snap.counter"), 0u);
    EXPECT_EQ(snap.gauge("test.snap.gauge"), 0);
  }
}

TEST(MetricsSnapshotTest, JsonAndPrometheusRenderRegisteredNames) {
  MetricsRegistry::global().counter("test.render.counter").inc(7);
  MetricsRegistry::global().gauge("test.render.gauge").set(3);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();

  const std::string json = snap.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  const std::string prom = snap.to_prometheus();
  if constexpr (kMetricsEnabled) {
    EXPECT_NE(json.find("\"test.render.counter\":"), std::string::npos);
    EXPECT_NE(json.find("\"test.render.gauge\":"), std::string::npos);
    // Prometheus names are psmr_-prefixed with dots flattened.
    EXPECT_NE(prom.find("psmr_test_render_counter 7"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE psmr_test_render_counter counter"),
              std::string::npos);
  } else {
    EXPECT_EQ(json, "{}");
    EXPECT_TRUE(prom.empty());
  }
}

// In the OFF build the metric types must carry no state: inc/add/record all
// compile to nothing (the header additionally static_asserts sizeof == 1).
TEST(MetricsOffContract, DisabledBuildReadsZero) {
  if constexpr (kMetricsEnabled) {
    GTEST_SKIP() << "metrics are compiled in";
  } else {
    Counter& counter = MetricsRegistry::global().counter("test.off");
    counter.inc(1000);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_TRUE(MetricsRegistry::global().snapshot().empty());
  }
}

// --------------------------------------------------------------------------
// End-to-end: a live deployment must move the per-layer counters. The
// registry is process-global and accumulates across tests, so everything is
// asserted on before/after snapshot deltas.
// --------------------------------------------------------------------------

std::uint64_t delta(const MetricsSnapshot& before,
                    const MetricsSnapshot& after, std::string_view name) {
  return after.counter(name) - before.counter(name);
}

Deployment::Config deployment_config() {
  Deployment::Config config;
  config.replicas = 3;
  config.net.base_latency_us = 30;
  config.net.jitter_us = 20;
  config.replica.cos.kind = CosKind::kLockFree;
  config.replica.workers = 4;
  config.replica.broadcast.batch_timeout_us = 200;
  config.replica.broadcast.heartbeat_interval_ms = 5;
  config.replica.broadcast.leader_timeout_ms = 250;
  config.replica.broadcast.tick_interval_ms = 1;
  return config;
}

TEST(MetricsEndToEnd, DeploymentMovesEveryLayersCounters) {
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();

  Deployment deployment(deployment_config(),
                        [] { return std::make_unique<KvService>(); });
  KvService builder;
  Xoshiro256 rng(11);
  SmrClient::Config client_config;
  client_config.pipeline = 4;
  deployment.add_client(client_config, [&] {
    const std::uint64_t key = rng.below(64);
    return rng.uniform() < 0.5 ? builder.make_put(key, rng.below(1000))
                               : builder.make_get(key);
  });
  deployment.start();
  for (int t = 0; t < 2000 && deployment.total_client_completed() < 200; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), 200u);
  for (SmrClient* client : deployment.clients()) client->drain(3000);
  deployment.stop();

  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  if constexpr (!kMetricsEnabled) {
    EXPECT_TRUE(after.empty());
    return;
  }
  // COS: every ordered command is inserted, fetched by a worker, removed.
  EXPECT_GT(delta(before, after, "cos.inserts"), 0u);
  EXPECT_GT(delta(before, after, "cos.gets"), 0u);
  EXPECT_GT(delta(before, after, "cos.removes"), 0u);
  EXPECT_GT(delta(before, after, "cos.ready_enq"), 0u);
  // Conservation: nothing fetched that was never inserted, and the window
  // drained on shutdown (inserts == removes across the quiesced run).
  EXPECT_GE(delta(before, after, "cos.inserts"),
            delta(before, after, "cos.gets"));
  // Scheduler and broadcast moved batches.
  EXPECT_GT(delta(before, after, "scheduler.batches"), 0u);
  EXPECT_GT(delta(before, after, "scheduler.batch_commands"), 0u);
  EXPECT_GT(delta(before, after, "broadcast.proposals"), 0u);
  EXPECT_GT(delta(before, after, "broadcast.delivered_commands"), 0u);
  // Transport carried traffic; client issued and completed.
  EXPECT_GT(delta(before, after, "net.sim.delivered"), 0u);
  EXPECT_GT(delta(before, after, "client.issued"), 0u);
  EXPECT_GE(delta(before, after, "client.issued"),
            delta(before, after, "client.completed"));
  // Worker time attribution only accumulates when the scheduler path ran.
  EXPECT_GT(delta(before, after, "worker.exec_ns"), 0u);
}

TEST(MetricsEndToEnd, ResendAndDuplicateCountersMoveUnderMessageLoss) {
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();

  Deployment::Config config = deployment_config();
  config.net.drop_rate = 0.02;
  Deployment deployment(config,
                        [] { return std::make_unique<KvService>(); });
  KvService builder;
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 4;
  client_config.resend_timeout_ms = 50;
  client_config.tick_interval_ms = 5;
  deployment.add_client(client_config, [&] {
    return builder.make_put(next.fetch_add(1) % 64, 1);
  });
  // Run until the resend timer has fired, and for at least 100 commands. A
  // resend needs a lost leader-bound request (or all three replies of one
  // command): about 2% per command, so 100 commands see none with
  // probability 0.98^100 ~ 0.13. Give up only after 1100 commands
  // (0.98^1100 < 1e-9).
  Counter& resends = MetricsRegistry::global().counter("client.resends");
  const std::uint64_t resends_before = resends.value();
  const auto done = [&] {
    const std::uint64_t completed = deployment.total_client_completed();
    if (completed < 100) return false;
    return !kMetricsEnabled || resends.value() > resends_before ||
           completed >= 1100;
  };
  deployment.start();
  for (int t = 0; t < 12000 && !done(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), 100u);
  for (SmrClient* client : deployment.clients()) client->drain(5000);
  deployment.stop();

  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  if constexpr (!kMetricsEnabled) return;
  // The loop above ran until the resend timer fired; and with 3 replicas
  // answering every request, later replies find the command already
  // completed.
  EXPECT_GT(delta(before, after, "client.resends"), 0u);
  EXPECT_GT(delta(before, after, "client.duplicate_replies"), 0u);
  EXPECT_GT(delta(before, after, "net.sim.dropped"), 0u);
  // The replica answered retransmissions from its reply cache.
  EXPECT_GT(delta(before, after, "scheduler.dedup_hits") +
                delta(before, after, "replica.reply_cache_hits"),
            0u);
}

}  // namespace
}  // namespace psmr
