// Figure 2: standalone data-structure throughput for different execution
// costs and number of workers (0% writes).
//
// Paper series: coarse-grained, fine-grained, lock-free over workers
// {1,2,4,6,8,10,12,16,24,32,40,48,56,64} for light/moderate/heavy cost.
// Expected shape: lock-free scales with workers to a peak (insert-thread
// bound for light/moderate), coarse-grained beats fine-grained in most
// read-only settings, and the gap narrows as execution cost grows.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "sim/cos_models.h"
#include "workload/ds_driver.h"

namespace {

using psmr::CosKind;
using psmr::ExecCost;

const std::vector<int> kPaperWorkers = {1, 2,  4,  6,  8,  10, 12,
                                        16, 24, 32, 40, 48, 56, 64};
const std::vector<int> kRealWorkers = {1, 2, 4, 8, 16, 32, 64};

constexpr CosKind kKinds[] = {CosKind::kCoarseGrained, CosKind::kFineGrained,
                              CosKind::kLockFree};
constexpr ExecCost kCosts[] = {ExecCost::kLight, ExecCost::kModerate,
                               ExecCost::kHeavy};

void run_real(const psmr::bench::Options& options) {
  const auto workers =
      options.quick ? std::vector<int>{1, 4, 16} : kRealWorkers;
  for (ExecCost cost : kCosts) {
    psmr::bench::print_header(
        "fig2", "DS throughput vs workers, 0% writes (kops/sec)",
        (std::string("real, ") + psmr::exec_cost_name(cost)).c_str());
    std::printf("%8s %18s %18s %18s\n", "workers", "coarse-grained",
                "fine-grained", "lock-free");
    for (int w : workers) {
      std::printf("%8d", w);
      for (CosKind kind : kKinds) {
        psmr::DsDriverConfig config;
        config.cos.kind = kind;
        config.cost = cost;
        config.workers = w;
        config.write_pct = 0.0;
        config.warmup_ms = options.quick ? 50 : 100;
        config.measure_ms = options.quick ? 100 : 250;
        const auto result = psmr::run_ds_benchmark(config);
        std::printf(" %18.1f", result.throughput_kops);
        const std::string series = std::string(psmr::cos_kind_name(kind)) +
                                   "/" + psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig2", "real", series.c_str(), w,
                                result.throughput_kops, result.mean_population);
      }
      std::printf("\n");
    }
  }
}

void run_sim(const psmr::bench::Options& options) {
  const auto workers =
      options.quick ? std::vector<int>{1, 4, 16, 64} : kPaperWorkers;
  for (ExecCost cost : kCosts) {
    psmr::bench::print_header(
        "fig2", "DS throughput vs workers, 0% writes (kops/sec)",
        (std::string("sim 64-core, ") + psmr::exec_cost_name(cost)).c_str());
    std::printf("%8s %18s %18s %18s\n", "workers", "coarse-grained",
                "fine-grained", "lock-free");
    for (int w : workers) {
      std::printf("%8d", w);
      for (CosKind kind : kKinds) {
        psmr::sim::SimConfig config;
        config.kind = kind;
        config.cost = cost;
        config.workers = w;
        config.write_pct = 0.0;
        if (options.quick) config.measure_ns = 50'000'000;
        const auto result = psmr::sim::simulate_cos(config);
        std::printf(" %18.1f", result.throughput_kops);
        const std::string series = std::string(psmr::cos_kind_name(kind)) +
                                   "/" + psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig2", "sim", series.c_str(), w,
                                result.throughput_kops, result.mean_population);
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  std::printf("Figure 2 — throughput for different execution costs and "
              "number of workers (0%% writes)\n");
  if (options.run_real) run_real(options);
  if (options.run_sim) run_sim(options);
  return psmr::bench::json_flush(options) ? 0 : 1;
}
