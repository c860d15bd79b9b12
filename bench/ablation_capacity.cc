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
#include <cstddef>
#include <optional>

#include "bench_util.h"

namespace bench = psmr::bench;

int main(int argc, char** argv) {
  return bench::run_figure(
      {.name = "ablation_capacity",
       .title = "Ablation — dependency graph capacity (maxSize)",
       .description = "DS throughput vs graph capacity (kops/sec)",
       .driver = bench::Driver::kStandalone,
       .yield = bench::Yield::kThroughput,
       .windows = {30, 80, 80, 250},
       .x_label = "capacity",
       .panels = {{"light cost, 10% writes, 4 workers", ""}},
       .series = bench::kind_series("capacity/"),
       .real_x = {{16, 150}, {8, 16, 50, 150, 500, 2000}},
       .sim_x = {},
       .point = [](bench::Mode, std::size_t, std::size_t s,
                   double x) -> std::optional<bench::Point> {
         return bench::Point{.kind = bench::kKinds[s],
                             .cost = psmr::ExecCost::kLight,
                             .workers = 4,
                             .write_pct = 10.0,
                             .capacity = static_cast<std::size_t>(x)};
       }},
      argc, argv);
}
