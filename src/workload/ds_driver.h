// Standalone data-structure driver — the paper's §7.3 harness.
//
// One scheduler thread loops over a list of pre-created commands (creation
// cost off the hot path, as in the paper) invoking insert(); W worker
// threads loop get() -> execute against the service -> remove(). Throughput
// is the number of commands completed by the workers during the measurement
// window, after a warm-up phase. The mean graph population is also sampled
// (the paper uses it to show the insert thread is the bottleneck at peak).
#pragma once

#include <cstdint>
#include <memory>

#include "app/linked_list_service.h"
#include "cos/factory.h"

namespace psmr {

struct DsDriverConfig {
  // kCosDag runs every command through the COS; kEarlyScheduling routes
  // reads to per-worker queues via the list service's class map
  // (kSequential is meaningless for the standalone harness and treated as
  // kCosDag).
  SchedulerPolicy policy = SchedulerPolicy::kCosDag;
  // COS knobs; `cos.conflict` is ignored — the driver always uses the
  // service's relation.
  CosOptions cos;
  ExecCost cost = ExecCost::kLight;
  double write_pct = 0.0;
  int workers = 1;
  std::uint64_t warmup_ms = 100;
  std::uint64_t measure_ms = 500;
  std::uint64_t seed = 42;
};

struct DsDriverResult {
  double throughput_kops = 0.0;  // completed commands per second / 1000
  double mean_population = 0.0;  // average graph occupancy during measurement
  std::uint64_t completed_ops = 0;
  std::uint64_t elapsed_ns = 0;
};

DsDriverResult run_ds_benchmark(const DsDriverConfig& config);

}  // namespace psmr
