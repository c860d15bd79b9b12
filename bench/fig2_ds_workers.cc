// Figure 2: standalone data-structure throughput for different execution
// costs and number of workers (0% writes).
//
// Paper series: coarse-grained, fine-grained, lock-free over workers
// {1,2,4,6,8,10,12,16,24,32,40,48,56,64} for light/moderate/heavy cost.
// Expected shape: lock-free scales with workers to a peak (insert-thread
// bound for light/moderate), coarse-grained beats fine-grained in most
// read-only settings, and the gap narrows as execution cost grows.
#include <optional>

#include "bench_util.h"

namespace bench = psmr::bench;

int main(int argc, char** argv) {
  return bench::run_figure(
      {.name = "fig2",
       .title = "Figure 2 — throughput for different execution costs and "
                "number of workers (0% writes)",
       .description = "DS throughput vs workers, 0% writes (kops/sec)",
       .driver = bench::Driver::kStandalone,
       .yield = bench::Yield::kThroughputPopulation,
       .windows = {50, 100, 100, 250},
       .x_label = "workers",
       .panels = bench::cost_panels(),
       .series = bench::kind_series(),
       .real_x = {{1, 4, 16}, {1, 2, 4, 8, 16, 32, 64}},
       .sim_x = bench::kPaperWorkers,
       .point = [](bench::Mode, std::size_t panel, std::size_t series,
                   double x) -> std::optional<bench::Point> {
         return bench::Point{.kind = bench::kKinds[series],
                             .cost = bench::kCosts[panel],
                             .workers = static_cast<int>(x)};
       }},
      argc, argv);
}
