// SMR benchmark driver — the paper's §7.4 harness.
//
// Deploys 3 replicas + closed-loop clients over the simulated network (a
// fast LAN: 30 us latency, 20 us jitter; batches close at 64 commands or
// 200 us), runs the linked-list workload for a warmup + measurement window,
// and reports server-side throughput (completed client commands) and
// client-side latency, as in the paper's Figs. 4-6.
#pragma once

#include <cstdint>

#include "app/linked_list_service.h"
#include "cos/factory.h"

namespace psmr {

struct SmrDriverConfig {
  // Scheduler policy for every replica (cos-dag / early / sequential).
  SchedulerPolicy policy = SchedulerPolicy::kCosDag;
  // COS knobs (kind, capacity); conflict is taken from the service.
  CosOptions cos;
  int workers = 4;
  ExecCost cost = ExecCost::kLight;
  double write_pct = 0.0;
  int replicas = 3;
  int clients = 16;
  int pipeline = 4;
  std::uint64_t warmup_ms = 300;
  std::uint64_t measure_ms = 700;
  std::uint64_t seed = 42;
};

struct SmrDriverResult {
  double throughput_kops = 0.0;  // client commands completed per second /1e3
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  std::uint64_t completed = 0;
  bool converged = false;  // replicas ended in identical states
};

SmrDriverResult run_smr_benchmark(const SmrDriverConfig& config);

}  // namespace psmr
