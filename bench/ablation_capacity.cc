// Ablation: dependency-graph capacity (maxSize).
//
// The paper fixes the graph at 150 node slots for every technique (§7.2)
// without exploring the choice. This bench sweeps the capacity: too small
// starves the workers (the ready frontier is clipped), too large inflates
// the list walks that remain after indexed insertion: the coarse-grained
// get() scans the list from the head for a ready node while holding the one
// monitor, and the fine-grained remove() walks hand over hand from the head
// to the node's predecessor. Both are O(population), so their throughput
// *degrades* with capacity, while the lock-free structure mainly needs
// enough slots to keep all workers fed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/ds_driver.h"

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  const std::vector<std::size_t> capacities =
      options.quick ? std::vector<std::size_t>{16, 150}
                    : std::vector<std::size_t>{8, 16, 50, 150, 500, 2000};

  std::printf("Ablation — dependency graph capacity (maxSize), light cost, "
              "10%% writes, 4 workers\n");
  std::printf("%10s %18s %18s %18s\n", "capacity", "coarse-grained",
              "fine-grained", "lock-free");
  for (std::size_t capacity : capacities) {
    std::printf("%10zu", capacity);
    for (psmr::CosKind kind :
         {psmr::CosKind::kCoarseGrained, psmr::CosKind::kFineGrained,
          psmr::CosKind::kLockFree}) {
      psmr::DsDriverConfig config;
      config.cos.kind = kind;
      config.cos.capacity = capacity;
      config.cost = psmr::ExecCost::kLight;
      config.write_pct = 10.0;
      config.workers = 4;
      config.warmup_ms = options.quick ? 30 : 80;
      config.measure_ms = options.quick ? 80 : 250;
      const auto result = psmr::run_ds_benchmark(config);
      std::printf(" %18.1f", result.throughput_kops);
      const std::string series =
          std::string("capacity/") + psmr::cos_kind_name(kind);
      psmr::bench::record_row("ablation_capacity", "real", series.c_str(),
                              static_cast<double>(capacity),
                              result.throughput_kops);
    }
    std::printf("\n");
  }
  return psmr::bench::json_flush(options) ? 0 : 1;
}
