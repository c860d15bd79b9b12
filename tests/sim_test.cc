// Tests of the discrete-event simulator: engine determinism, resource
// semantics, and sanity/shape properties of the calibrated COS models
// (conservation, scaling directions, saturation ceilings).
#include <gtest/gtest.h>

#include <vector>

#include "sim/cos_models.h"
#include "sim/des.h"

namespace psmr::sim {
namespace {

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(Des, EventsRunInTimeOrder) {
  Des des;
  std::vector<int> order;
  des.at(30, [&] { order.push_back(3); });
  des.at(10, [&] { order.push_back(1); });
  des.at(20, [&] { order.push_back(2); });
  des.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(des.now(), 100u);
}

TEST(Des, TiesBreakByInsertionOrder) {
  Des des;
  std::vector<int> order;
  des.at(5, [&] { order.push_back(1); });
  des.at(5, [&] { order.push_back(2); });
  des.at(5, [&] { order.push_back(3); });
  des.run_until(5);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Des, AfterIsRelativeToNow) {
  Des des;
  std::uint64_t fired_at = 0;
  des.at(100, [&] {
    des.after(50, [&] { fired_at = des.now(); });
  });
  des.run_until(1000);
  EXPECT_EQ(fired_at, 150u);
}

TEST(Des, RunUntilStopsAtBoundary) {
  Des des;
  int fired = 0;
  des.at(10, [&] { ++fired; });
  des.at(11, [&] { ++fired; });
  des.run_until(10);
  EXPECT_EQ(fired, 1);
  des.run_until(11);
  EXPECT_EQ(fired, 2);
}

TEST(SimSemaphore, FifoGrantOrder) {
  Des des;
  SimSemaphore sem(des, 0);
  std::vector<int> grants;
  sem.acquire([&] { grants.push_back(1); });
  sem.acquire([&] { grants.push_back(2); });
  sem.release(2);
  des.run_until(1);
  EXPECT_EQ(grants, (std::vector<int>{1, 2}));
}

TEST(SimSemaphore, PermitsCarryOver) {
  Des des;
  SimSemaphore sem(des, 2);
  int acquired = 0;
  sem.acquire([&] { ++acquired; });
  sem.acquire([&] { ++acquired; });
  sem.acquire([&] { ++acquired; });  // blocked
  des.run_until(1);
  EXPECT_EQ(acquired, 2);
  sem.release();
  des.run_until(2);
  EXPECT_EQ(acquired, 3);
}

TEST(SimMutex, SerializesCriticalSections) {
  Des des;
  SimMutex mutex(des);
  int inside = 0;
  int max_inside = 0;
  auto enter = [&] {
    mutex.acquire([&] {
      ++inside;
      max_inside = std::max(max_inside, inside);
      des.after(10, [&] {
        --inside;
        mutex.release();
      });
    });
  };
  enter();
  enter();
  enter();
  des.run_until(100);
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(inside, 0);
}

TEST(SimCores, LimitsParallelism) {
  Des des;
  SimCores cores(des, 2);
  // 4 bursts of 10ns on 2 cores: total makespan 20ns, not 10.
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    cores.burst(10, [&] { ++done; });
  }
  des.run_until(10);
  EXPECT_EQ(done, 2);
  des.run_until(20);
  EXPECT_EQ(done, 4);
}

// ---------------------------------------------------------------------------
// COS models — sanity and shape
// ---------------------------------------------------------------------------

SimConfig base_config() {
  SimConfig config;
  config.warmup_ns = 5'000'000;
  config.measure_ns = 50'000'000;
  return config;
}

TEST(CosModel, AllKindsCompleteWork) {
  for (psmr::CosKind kind :
       {psmr::CosKind::kCoarseGrained, psmr::CosKind::kFineGrained,
        psmr::CosKind::kLockFree}) {
    SimConfig config = base_config();
    config.kind = kind;
    config.workers = 4;
    const SimResult result = simulate_cos(config);
    EXPECT_GT(result.completed, 0u);
    EXPECT_GT(result.throughput_kops, 0.0);
  }
}

TEST(CosModel, PopulationNeverExceedsGraphSize) {
  SimConfig config = base_config();
  config.graph_size = 50;
  config.workers = 2;
  const SimResult result = simulate_cos(config);
  EXPECT_LE(result.mean_population, 50.0);
}

TEST(CosModel, LockFreeScalesWithWorkersOnHeavyCost) {
  // With expensive commands, doubling workers should come close to
  // doubling throughput until the insert thread saturates.
  SimConfig config = base_config();
  config.kind = psmr::CosKind::kLockFree;
  config.cost = psmr::ExecCost::kHeavy;
  config.workers = 2;
  const double t2 = simulate_cos(config).throughput_kops;
  config.workers = 8;
  const double t8 = simulate_cos(config).throughput_kops;
  EXPECT_GT(t8, t2 * 2.5) << "lock-free model failed to scale";
}

TEST(CosModel, CoarseGrainedSaturatesEarly) {
  // The coarse-grained monitor serializes graph operations: many workers
  // must not yield large gains on light commands.
  SimConfig config = base_config();
  config.kind = psmr::CosKind::kCoarseGrained;
  config.cost = psmr::ExecCost::kLight;
  config.workers = 4;
  const double t4 = simulate_cos(config).throughput_kops;
  config.workers = 32;
  const double t32 = simulate_cos(config).throughput_kops;
  EXPECT_LT(t32, t4 * 2.0) << "coarse-grained model scaled implausibly";
}

TEST(CosModel, LockFreeBeatsBlockingAtScale) {
  SimConfig config = base_config();
  config.cost = psmr::ExecCost::kModerate;
  config.workers = 32;
  config.kind = psmr::CosKind::kLockFree;
  const double lock_free = simulate_cos(config).throughput_kops;
  config.kind = psmr::CosKind::kCoarseGrained;
  const double coarse = simulate_cos(config).throughput_kops;
  config.kind = psmr::CosKind::kFineGrained;
  const double fine = simulate_cos(config).throughput_kops;
  EXPECT_GT(lock_free, coarse);
  EXPECT_GT(lock_free, fine);
}

TEST(CosModel, FullWriteWorkloadSerializes) {
  // 100% writes: every command conflicts with every other, so workers
  // beyond the first must not help. Mean population should also stay at
  // the graph bound (commands pile up).
  SimConfig config = base_config();
  config.kind = psmr::CosKind::kLockFree;
  config.write_pct = 100.0;
  config.workers = 1;
  const double t1 = simulate_cos(config).throughput_kops;
  config.workers = 16;
  const double t16 = simulate_cos(config).throughput_kops;
  EXPECT_LT(t16, t1 * 1.3);
}

TEST(CosModel, DeterministicForSeedAndConfig) {
  SimConfig config = base_config();
  config.workers = 6;
  config.write_pct = 10.0;
  const SimResult a = simulate_cos(config);
  const SimResult b = simulate_cos(config);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.throughput_kops, b.throughput_kops);
}

TEST(CosModel, SmrModeProducesLatencies) {
  SimConfig config = base_config();
  config.smr_mode = true;
  config.clients = 40;
  config.workers = 8;
  const SimResult result = simulate_cos(config);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.mean_latency_ms, 0.0);
  EXPECT_GE(result.p95_latency_ms, result.mean_latency_ms * 0.5);
  // Closed loop: latency must at least cover the network round trip.
  EXPECT_GE(result.mean_latency_ms,
            2.0 * static_cast<double>(config.net_one_way_ns) * 1e-6);
}

TEST(CosModel, SmrSequentialBaselineRuns) {
  SimConfig config = base_config();
  config.smr_mode = true;
  config.sequential = true;
  config.clients = 40;
  const SimResult result = simulate_cos(config);
  EXPECT_GT(result.completed, 0u);
}

TEST(CosModel, SmrThroughputBoundedByClients) {
  // Closed-loop with C clients and pipeline 1: throughput can never exceed
  // C / round-trip-floor.
  SimConfig config = base_config();
  config.smr_mode = true;
  config.clients = 10;
  config.workers = 8;
  const SimResult result = simulate_cos(config);
  const double floor_s =
      2.0 * static_cast<double>(config.net_one_way_ns) * 1e-9;
  EXPECT_LT(result.throughput_kops * 1000.0,
            static_cast<double>(config.clients) / floor_s * 1.05);
}

TEST(CosModel, MoreClientsMoreThroughputUntilSaturation) {
  SimConfig config = base_config();
  config.smr_mode = true;
  config.workers = 16;
  config.clients = 5;
  const double t5 = simulate_cos(config).throughput_kops;
  config.clients = 50;
  const double t50 = simulate_cos(config).throughput_kops;
  EXPECT_GT(t50, t5 * 2.0);
}

}  // namespace
}  // namespace psmr::sim
