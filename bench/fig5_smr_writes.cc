// Figure 5: parallel-SMR throughput for different percentages of writes
// and execution costs, at each technique's best worker count, plus the
// sequential-SMR baseline.
//
// Expected shape: lock-free dominates the parallel techniques everywhere;
// sequential SMR overtakes the parallel ones beyond ~25% writes for
// light/moderate costs, while for heavy costs parallelism wins almost
// everywhere. (The paper's best counts in SMR: light 12/4/8, moderate
// 12/6/32, heavy 40/32/64 for coarse/fine/lock-free.)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/cos_models.h"
#include "workload/smr_driver.h"

namespace {

using psmr::CosKind;
using psmr::ExecCost;

const std::vector<double> kWritePcts = {0, 1, 5, 10, 15, 20, 25, 50, 100};

constexpr CosKind kKinds[] = {CosKind::kCoarseGrained, CosKind::kFineGrained,
                              CosKind::kLockFree};
constexpr ExecCost kCosts[] = {ExecCost::kLight, ExecCost::kModerate,
                               ExecCost::kHeavy};

int paper_best_workers(CosKind kind, ExecCost cost) {
  switch (cost) {
    case ExecCost::kLight:
      return kind == CosKind::kCoarseGrained  ? 12
             : kind == CosKind::kFineGrained ? 4
                                             : 8;
    case ExecCost::kModerate:
      return kind == CosKind::kCoarseGrained  ? 12
             : kind == CosKind::kFineGrained ? 6
                                             : 32;
    case ExecCost::kHeavy:
      return kind == CosKind::kCoarseGrained  ? 40
             : kind == CosKind::kFineGrained ? 32
                                             : 64;
  }
  return 1;
}

void run_real(const psmr::bench::Options& options) {
  const auto pcts =
      options.quick ? std::vector<double>{0, 10, 100} : kWritePcts;
  for (ExecCost cost : kCosts) {
    psmr::bench::print_header(
        "fig5", "SMR throughput vs write % (kops/sec)",
        (std::string("real, ") + psmr::exec_cost_name(cost)).c_str());
    std::printf("%8s %18s %18s %18s %18s\n", "writes%", "coarse-grained",
                "fine-grained", "lock-free", "sequential");
    for (double pct : pcts) {
      std::printf("%8g", pct);
      for (CosKind kind : kKinds) {
        psmr::SmrDriverConfig config;
        config.cos.kind = kind;
        config.cost = cost;
        config.workers = 4;  // representative on this host
        config.write_pct = pct;
        config.clients = 8;
        config.pipeline = 8;
        config.warmup_ms = options.quick ? 100 : 150;
        config.measure_ms = options.quick ? 150 : 400;
        const auto result = psmr::run_smr_benchmark(config);
        std::printf(" %18.1f", result.throughput_kops);
        const std::string series = std::string(psmr::cos_kind_name(kind)) +
                                   "/" + psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig5", "real", series.c_str(), pct,
                                result.throughput_kops);
      }
      psmr::SmrDriverConfig sequential;
      sequential.policy = psmr::SchedulerPolicy::kSequential;
      sequential.cost = cost;
      sequential.write_pct = pct;
      sequential.clients = 8;
      sequential.pipeline = 8;
      sequential.warmup_ms = options.quick ? 100 : 150;
      sequential.measure_ms = options.quick ? 150 : 400;
      const auto seq_result = psmr::run_smr_benchmark(sequential);
      std::printf(" %18.1f\n", seq_result.throughput_kops);
      const std::string seq_series =
          std::string("sequential/") + psmr::exec_cost_name(cost);
      psmr::bench::record_row("fig5", "real", seq_series.c_str(), pct,
                              seq_result.throughput_kops);
    }
  }
}

void run_sim(const psmr::bench::Options& options) {
  const auto pcts =
      options.quick ? std::vector<double>{0, 10, 100} : kWritePcts;
  for (ExecCost cost : kCosts) {
    psmr::bench::print_header(
        "fig5", "SMR throughput vs write % (kops/sec)",
        (std::string("sim 64-core, ") + psmr::exec_cost_name(cost)).c_str());
    std::printf("%8s %18s %18s %18s %18s\n", "writes%", "coarse-grained",
                "fine-grained", "lock-free", "sequential");
    for (double pct : pcts) {
      std::printf("%8g", pct);
      for (CosKind kind : kKinds) {
        psmr::sim::SimConfig config;
        config.smr_mode = true;
        config.kind = kind;
        config.cost = cost;
        config.workers = paper_best_workers(kind, cost);
        config.write_pct = pct;
        config.clients = 200;
        if (options.quick) config.measure_ns = 50'000'000;
        const auto result = psmr::sim::simulate_cos(config);
        std::printf(" %18.1f", result.throughput_kops);
        const std::string series = std::string(psmr::cos_kind_name(kind)) +
                                   "/" + psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig5", "sim", series.c_str(), pct,
                                result.throughput_kops);
      }
      psmr::sim::SimConfig sequential;
      sequential.smr_mode = true;
      sequential.sequential = true;
      sequential.cost = cost;
      sequential.write_pct = pct;
      sequential.clients = 200;
      if (options.quick) sequential.measure_ns = 50'000'000;
      const auto seq_result = psmr::sim::simulate_cos(sequential);
      std::printf(" %18.1f\n", seq_result.throughput_kops);
      const std::string seq_series =
          std::string("sequential/") + psmr::exec_cost_name(cost);
      psmr::bench::record_row("fig5", "sim", seq_series.c_str(), pct,
                              seq_result.throughput_kops);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  std::printf("Figure 5 — SMR throughput for different percentages of "
              "writes and execution costs\n");
  if (options.run_real) run_real(options);
  if (options.run_sim) run_sim(options);
  return psmr::bench::json_flush(options) ? 0 : 1;
}
