// Ablation: the lock-granularity spectrum (paper §7.3.2's closing remark).
//
// "Locking the complete graph (i.e., the coarse-grain approach) and
//  individual graph nodes (i.e., the fine-grain approach) represent two
//  ends of a 'lock granularity spectrum'. Alternatively, one could
//  experiment with other granularities of locks (e.g., granular locks),
//  trading concurrency for overhead."
//
// This bench runs that experiment: the striped COS with segment widths
// swept from 1 (≈ fine-grained) to the full graph (≈ coarse-grained),
// bracketed by the three paper implementations. Every configuration runs
// through the shared run_ds_benchmark driver, at two points: light cost with
// 10% writes (lock-free's regime) and moderate cost with 50% writes (where
// striped beats both fine-grained and lock-free on 4 cores).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cos/factory.h"
#include "workload/ds_driver.h"

namespace {

struct Regime {
  psmr::ExecCost cost;
  double write_pct;
};

double run(const psmr::CosOptions& cos, const Regime& regime,
           std::uint64_t measure_ms) {
  psmr::DsDriverConfig config;
  config.cos = cos;
  config.cost = regime.cost;
  config.write_pct = regime.write_pct;
  config.workers = 4;
  config.warmup_ms = 60;
  config.measure_ms = measure_ms;
  return psmr::run_ds_benchmark(config).throughput_kops;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  const std::uint64_t ms = options.quick ? 100 : 400;
  const std::vector<std::size_t> widths =
      options.quick ? std::vector<std::size_t>{1, 16}
                    : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 75, 150};

  std::printf("Ablation — lock granularity spectrum (4 workers)\n");
  for (const Regime& regime : {Regime{psmr::ExecCost::kLight, 10.0},
                               Regime{psmr::ExecCost::kModerate, 50.0}}) {
    const std::string prefix =
        std::string(psmr::exec_cost_name(regime.cost)) + "-w" +
        std::to_string(static_cast<int>(regime.write_pct)) + "/";
    std::printf("\n%s cost, %g%% writes\n%24s %16s\n",
                psmr::exec_cost_name(regime.cost), regime.write_pct,
                "configuration", "kops/sec");

    // Reference points: the three paper implementations.
    for (psmr::CosKind kind :
         {psmr::CosKind::kFineGrained, psmr::CosKind::kCoarseGrained,
          psmr::CosKind::kLockFree}) {
      const double kops = run({.kind = kind}, regime, ms);
      std::printf("%24s %16.1f\n", psmr::cos_kind_name(kind), kops);
      psmr::bench::csv_row("ablation_granularity", "real",
                           (prefix + psmr::cos_kind_name(kind)).c_str(), 0,
                           kops);
    }
    for (std::size_t width : widths) {
      const double kops = run(
          {.kind = psmr::CosKind::kStriped, .segment_width = width}, regime,
          ms);
      const std::string label = "striped/width=" + std::to_string(width);
      std::printf("%24s %16.1f\n", label.c_str(), kops);
      psmr::bench::csv_row("ablation_granularity", "real",
                           (prefix + "striped").c_str(),
                           static_cast<double>(width), kops);
    }
  }
  psmr::bench::csv_flush();
  return 0;
}
