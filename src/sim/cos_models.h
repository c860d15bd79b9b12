// Calibrated models of the three COS implementations (and of the SMR
// pipeline around them) on a simulated P-core machine.
//
// What is exact: the *semantics* of the conflict-ordered set under the
// paper's readers/writers conflict relation. The simulator tracks the real
// window of pending commands and computes readiness exactly (a read is
// ready iff no older write is present; a write is ready iff it is the
// oldest command), so scheduling dynamics — convoying behind writes, the
// ready/space semaphore interplay, insert-thread starvation — are faithful.
//
// What is modeled: *time*. Each operation costs virtual nanoseconds taken
// from a CostModel (linear in the population scanned), occupies a core for
// that time, and — for the two blocking algorithms — holds the graph
// critical section:
//  - coarse-grained: one FIFO mutex around insert/get/remove, exactly the
//    monitor of Alg. 2.
//  - fine-grained: hand-over-hand traversals cannot overtake, and with
//    sleeping mutexes the pipeline is dominated by wake-up convoys, so the
//    model serializes traversals too, with per-node costs measured from the
//    real implementation (which are several times the coarse-grained
//    per-node cost — matching the paper's observation that fine-grained
//    usually loses to coarse-grained).
//  - lock-free: no critical section; get/remove run concurrently with a
//    small CAS-contention inflation; insert stays sequential on the
//    scheduler thread (its rate 1/t_insert is the natural throughput
//    ceiling the paper reports for light/moderate workloads).
//
// Cost constants default to values calibrated on the reference host with
// bench/micro_cos; see EXPERIMENTS.md for the calibration table.
#pragma once

#include <cstdint>

#include "app/linked_list_service.h"
#include "common/histogram.h"
#include "cos/factory.h"
#include "sim/des.h"

namespace psmr::sim {

struct LinearCost {
  double base_ns = 0;
  double per_node_ns = 0;
  VirtualNs at(double population) const {
    double v = base_ns + per_node_ns * population;
    return v > 0 ? static_cast<VirtualNs>(v) : 0;
  }
};

struct CostModel {
  // Graph-operation costs as a function of scanned population. Defaults
  // are calibrated from bench/micro_cos on the reference host (see
  // EXPERIMENTS.md); override after measuring locally for best fidelity.
  // Fitted from BM_CosCycle at populations {0,25,75,149} and
  // BM_CosInsertOnly on the reference host (see EXPERIMENTS.md):
  //   coarse cycle  ~  60 + 3.8*pop ns   (single mutex, one scan each op)
  //   fine cycle    ~ 100 + 17*pop  ns   (three full lock-coupled walks)
  //   lock-free     ~ 133 + 8.3*pop ns   (insert dominates: node + edges)
  LinearCost coarse_insert{30, 2.2};
  LinearCost coarse_get{15, 1.0};
  LinearCost coarse_remove{15, 0.6};
  LinearCost fine_insert{35, 6.0};
  LinearCost fine_get{30, 5.0};
  LinearCost fine_remove{35, 6.0};
  LinearCost lf_insert{220, 4.0};
  LinearCost lf_get{20, 2.0};
  LinearCost lf_remove{30, 2.0};

  // Per-command execution cost for the paper's light/moderate/heavy list
  // sizes (1k/10k/100k sorted-list traversal), measured on the reference
  // host via the standalone driver.
  double exec_ns[3] = {1200, 12000, 140000};

  // Contended mutex handoff (futex wake-up) latency: paid by each granted
  // acquisition that found the lock busy. This is what plateaus the
  // blocking algorithms in the paper — the critical sections themselves
  // are short, the convoys are not. The fine-grained value is higher: its
  // hand-over-hand walks bounce through many short sleeps per traversal,
  // which shows up as a larger effective per-operation wake cost.
  double mutex_handoff_ns = 1500;
  double fine_handoff_ns = 2500;

  // Residual proportional inflation (cache-line ping-pong on shared data)
  // per extra active worker.
  double mutex_contention_coeff = 0.02;
  double fine_contention_coeff = 0.03;
  double lf_contention_coeff = 0.002;
};

struct SimConfig {
  psmr::CosKind kind = psmr::CosKind::kLockFree;
  bool sequential = false;  // classical SMR (SMR mode only): 1 executor, no COS
  int cores = 64;
  int workers = 8;
  double write_pct = 0.0;
  psmr::ExecCost cost = psmr::ExecCost::kLight;
  std::size_t graph_size = psmr::kPaperGraphSize;
  std::uint64_t seed = 7;
  VirtualNs warmup_ns = 20'000'000;     // 20 ms virtual
  VirtualNs measure_ns = 200'000'000;   // 200 ms virtual

  // SMR mode (fig. 4-6). When false, the insert source is infinite (the
  // standalone §7.3 harness).
  bool smr_mode = false;
  int clients = 200;
  int client_pipeline = 1;
  VirtualNs net_one_way_ns = 150'000;   // client<->replica / replica<->replica
  VirtualNs batch_timeout_ns = 500'000;
  std::size_t batch_max = 64;
  VirtualNs consensus_cpu_ns = 10'000;  // per-batch ordering CPU

  CostModel costs;
};

struct SimResult {
  double throughput_kops = 0.0;
  std::uint64_t completed = 0;
  double mean_population = 0.0;
  // SMR mode only:
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
};

// Runs one configuration to completion in virtual time.
SimResult simulate_cos(const SimConfig& config);

}  // namespace psmr::sim
