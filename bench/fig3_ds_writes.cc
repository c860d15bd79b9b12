// Figure 3: standalone data-structure throughput for different percentages
// of writes, at each technique's best-performing worker count.
//
// The paper first finds the best worker count per technique under 0% writes
// (its Fig. 2), then sweeps the write percentage. We do the same: in real
// mode the best count is found with a quick pre-sweep on this host; in sim
// mode we use the paper's own best counts (light: 10/1/2, moderate:
// 12/6/16, heavy: 48/32/64 for coarse/fine/lock-free).
// Expected shape: lock-free leads at low write %, fine-grained degrades
// least for light (its best config is 1 worker, already sequential), and
// everything converges as writes -> 100%.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/cos_models.h"
#include "workload/ds_driver.h"

namespace {

using psmr::CosKind;
using psmr::ExecCost;

const std::vector<double> kWritePcts = {0, 1, 5, 10, 15, 20, 25, 50, 100};

constexpr CosKind kKinds[] = {CosKind::kCoarseGrained, CosKind::kFineGrained,
                              CosKind::kLockFree};
constexpr ExecCost kCosts[] = {ExecCost::kLight, ExecCost::kModerate,
                               ExecCost::kHeavy};

// Paper's best worker counts (coarse, fine, lock-free) per cost.
int paper_best_workers(CosKind kind, ExecCost cost) {
  switch (cost) {
    case ExecCost::kLight:
      return kind == CosKind::kCoarseGrained  ? 10
             : kind == CosKind::kFineGrained ? 1
                                             : 2;
    case ExecCost::kModerate:
      return kind == CosKind::kCoarseGrained  ? 12
             : kind == CosKind::kFineGrained ? 6
                                             : 16;
    case ExecCost::kHeavy:
      return kind == CosKind::kCoarseGrained  ? 48
             : kind == CosKind::kFineGrained ? 32
                                             : 64;
  }
  return 1;
}

int find_best_workers_real(CosKind kind, ExecCost cost, bool quick) {
  int best = 1;
  double best_throughput = -1;
  for (int w : {1, 2, 4, 8, 16}) {
    psmr::DsDriverConfig config;
    config.cos.kind = kind;
    config.cost = cost;
    config.workers = w;
    config.write_pct = 0.0;
    config.warmup_ms = 30;
    config.measure_ms = quick ? 60 : 120;
    const auto result = psmr::run_ds_benchmark(config);
    if (result.throughput_kops > best_throughput) {
      best_throughput = result.throughput_kops;
      best = w;
    }
  }
  return best;
}

void run_real(const psmr::bench::Options& options) {
  const auto pcts =
      options.quick ? std::vector<double>{0, 10, 100} : kWritePcts;
  for (ExecCost cost : kCosts) {
    int best[3];
    for (int k = 0; k < 3; ++k) {
      best[k] = find_best_workers_real(kKinds[k], cost, options.quick);
    }
    psmr::bench::print_header(
        "fig3", "DS throughput vs write % (kops/sec)",
        (std::string("real, ") + psmr::exec_cost_name(cost)).c_str());
    std::printf("%8s coarse-grained(w=%d) fine-grained(w=%d) lock-free(w=%d)\n",
                "writes%", best[0], best[1], best[2]);
    for (double pct : pcts) {
      std::printf("%8g", pct);
      for (int k = 0; k < 3; ++k) {
        psmr::DsDriverConfig config;
        config.cos.kind = kKinds[k];
        config.cost = cost;
        config.workers = best[k];
        config.write_pct = pct;
        config.warmup_ms = options.quick ? 30 : 80;
        config.measure_ms = options.quick ? 80 : 200;
        const auto result = psmr::run_ds_benchmark(config);
        std::printf(" %19.1f", result.throughput_kops);
        const std::string series =
            std::string(psmr::cos_kind_name(kKinds[k])) + "/" +
            psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig3", "real", series.c_str(), pct,
                                result.throughput_kops);
      }
      std::printf("\n");
    }
  }
}

void run_sim(const psmr::bench::Options& options) {
  const auto pcts =
      options.quick ? std::vector<double>{0, 10, 100} : kWritePcts;
  for (ExecCost cost : kCosts) {
    psmr::bench::print_header(
        "fig3", "DS throughput vs write % (kops/sec)",
        (std::string("sim 64-core, ") + psmr::exec_cost_name(cost)).c_str());
    std::printf("%8s coarse-grained(w=%d) fine-grained(w=%d) lock-free(w=%d)\n",
                "writes%",
                paper_best_workers(CosKind::kCoarseGrained, cost),
                paper_best_workers(CosKind::kFineGrained, cost),
                paper_best_workers(CosKind::kLockFree, cost));
    for (double pct : pcts) {
      std::printf("%8g", pct);
      for (CosKind kind : kKinds) {
        psmr::sim::SimConfig config;
        config.kind = kind;
        config.cost = cost;
        config.workers = paper_best_workers(kind, cost);
        config.write_pct = pct;
        if (options.quick) config.measure_ns = 50'000'000;
        const auto result = psmr::sim::simulate_cos(config);
        std::printf(" %19.1f", result.throughput_kops);
        const std::string series = std::string(psmr::cos_kind_name(kind)) +
                                   "/" + psmr::exec_cost_name(cost);
        psmr::bench::record_row("fig3", "sim", series.c_str(), pct,
                                result.throughput_kops);
      }
      std::printf("\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  std::printf("Figure 3 — throughput for different percentages of writes "
              "and execution costs\n");
  if (options.run_real) run_real(options);
  if (options.run_sim) run_sim(options);
  return psmr::bench::json_flush(options) ? 0 : 1;
}
