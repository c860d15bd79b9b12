// Figure 4: parallel-SMR throughput for different execution costs and
// number of workers (0% writes), plus the sequential-SMR baseline.
//
// Same sweep as Fig. 2 but each point is a full deployment: 3 replicas over
// the simulated network, sequenced atomic broadcast with batching, and
// closed-loop clients. Expected shape: same ordering as Fig. 2 with lower
// absolute values (ordering-protocol overhead); parallel beats sequential
// for every configuration with more than one worker; lock-free scales
// linearly in the inset range.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/cos_models.h"
#include "workload/smr_driver.h"

namespace {

using psmr::CosKind;
using psmr::ExecCost;

constexpr CosKind kKinds[] = {CosKind::kCoarseGrained, CosKind::kFineGrained,
                              CosKind::kLockFree};
constexpr ExecCost kCosts[] = {ExecCost::kLight, ExecCost::kModerate,
                               ExecCost::kHeavy};

void run_real(const psmr::bench::Options& options) {
  const auto workers =
      options.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  for (ExecCost cost : kCosts) {
    psmr::bench::print_header(
        "fig4", "SMR throughput vs workers, 0% writes (kops/sec)",
        (std::string("real, ") + psmr::exec_cost_name(cost)).c_str());

    psmr::SmrDriverConfig sequential;
    sequential.policy = psmr::SchedulerPolicy::kSequential;
    sequential.cost = cost;
    sequential.clients = 8;
    sequential.pipeline = 8;
    sequential.warmup_ms = options.quick ? 100 : 200;
    sequential.measure_ms = options.quick ? 200 : 500;
    const auto seq_result = psmr::run_smr_benchmark(sequential);
    std::printf("sequential SMR: %.1f kops/sec\n",
                seq_result.throughput_kops);
    const std::string seq_series =
        std::string("sequential/") + psmr::exec_cost_name(cost);
    psmr::bench::record_row("fig4", "real", seq_series.c_str(), 1,
                            seq_result.throughput_kops);

    std::printf("%8s %18s %18s %18s\n", "workers", "coarse-grained",
                "fine-grained", "lock-free");
    std::vector<std::pair<int, double>> lock_free_points;
    for (int w : workers) {
      std::printf("%8d", w);
      for (CosKind kind : kKinds) {
        psmr::SmrDriverConfig config;
        config.cos.kind = kind;
        config.cost = cost;
        config.workers = w;
        config.clients = 8;
        config.pipeline = 8;
        config.warmup_ms = options.quick ? 100 : 200;
        config.measure_ms = options.quick ? 200 : 500;
        const auto result = psmr::run_smr_benchmark(config);
        std::printf(" %18.1f", result.throughput_kops);
        const std::string series = std::string(psmr::cos_kind_name(kind)) +
                                   "/" + psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig4", "real", series.c_str(), w,
                                result.throughput_kops);
        if (kind == CosKind::kLockFree) {
          lock_free_points.emplace_back(w, result.throughput_kops);
        }
      }
      std::printf("\n");
    }
    // Machine-portable ratios for the committed end-to-end baseline
    // (BENCH_smr.json): parallel lock-free vs the sequential baseline.
    // Only "speedup/" series participate in the --compare gate.
    if (seq_result.throughput_kops > 0) {
      for (const auto& [w, kops] : lock_free_points) {
        const std::string series =
            std::string("speedup/lock-free/") + psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig4", "real", series.c_str(), w,
                                kops / seq_result.throughput_kops);
      }
    }
  }
}

void run_sim(const psmr::bench::Options& options) {
  const auto workers = options.quick
                           ? std::vector<int>{1, 4, 16, 64}
                           : std::vector<int>{1, 2,  4,  6,  8,  10, 12,
                                              16, 24, 32, 40, 48, 56, 64};
  for (ExecCost cost : kCosts) {
    psmr::bench::print_header(
        "fig4", "SMR throughput vs workers, 0% writes (kops/sec)",
        (std::string("sim 64-core, ") + psmr::exec_cost_name(cost)).c_str());

    psmr::sim::SimConfig sequential;
    sequential.smr_mode = true;
    sequential.sequential = true;
    sequential.cost = cost;
    sequential.clients = 200;
    if (options.quick) sequential.measure_ns = 50'000'000;
    const auto seq_result = psmr::sim::simulate_cos(sequential);
    std::printf("sequential SMR: %.1f kops/sec\n",
                seq_result.throughput_kops);
    const std::string seq_series =
        std::string("sequential/") + psmr::exec_cost_name(cost);
    psmr::bench::record_row("fig4", "sim", seq_series.c_str(), 1,
                            seq_result.throughput_kops);

    std::printf("%8s %18s %18s %18s\n", "workers", "coarse-grained",
                "fine-grained", "lock-free");
    for (int w : workers) {
      std::printf("%8d", w);
      for (CosKind kind : kKinds) {
        psmr::sim::SimConfig config;
        config.smr_mode = true;
        config.kind = kind;
        config.cost = cost;
        config.workers = w;
        config.clients = 200;
        if (options.quick) config.measure_ns = 50'000'000;
        const auto result = psmr::sim::simulate_cos(config);
        std::printf(" %18.1f", result.throughput_kops);
        const std::string series = std::string(psmr::cos_kind_name(kind)) +
                                   "/" + psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig4", "sim", series.c_str(), w,
                                result.throughput_kops);
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  std::printf("Figure 4 — SMR throughput for different execution costs and "
              "number of workers (0%% writes)\n");
  if (options.run_real) run_real(options);
  if (options.run_sim) run_sim(options);
  if (!psmr::bench::json_flush(options)) return 1;
  // Gate the end-to-end SMR ratios against the committed BENCH_smr.json
  // baseline (per-point minimum over repeated runs).
  const int regressions = psmr::bench::run_compare("fig4", options);
  return regressions == 0 ? 0 : 1;
}
