// Figure 4: parallel-SMR throughput for different execution costs and
// number of workers (0% writes), plus the sequential-SMR baseline.
//
// Same sweep as Fig. 2 but each point is a full deployment: 3 replicas over
// the simulated network, sequenced atomic broadcast with batching, and
// closed-loop clients. Expected shape: same ordering as Fig. 2 with lower
// absolute values (ordering-protocol overhead); parallel beats sequential
// for every configuration with more than one worker; lock-free scales
// linearly in the inset range.
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace bench = psmr::bench;

int main(int argc, char** argv) {
  std::vector<std::string> series = bench::kind_series();
  series.insert(series.begin(), "sequential");
  return bench::run_figure(
      {.name = "fig4",
       .title = "Figure 4 — SMR throughput for different execution costs and "
                "number of workers (0% writes)",
       .description = "SMR throughput vs workers, 0% writes (kops/sec)",
       .driver = bench::Driver::kSmr,
       .yield = bench::Yield::kThroughput,
       .windows = {100, 200, 200, 500},
       .x_label = "workers",
       .panels = bench::cost_panels(),
       .series = series,
       .real_x = {{1, 4}, {1, 2, 4, 8}},
       .sim_x = bench::kPaperWorkers,
       // The sequential baseline runs once per cost, recorded at x = 1.
       .point = [](bench::Mode, std::size_t panel, std::size_t s,
                   double x) -> std::optional<bench::Point> {
         if (s == 0) {
           if (x != 1) return std::nullopt;
           return bench::Point{.sequential = true,
                               .cost = bench::kCosts[panel]};
         }
         return bench::Point{.kind = bench::kKinds[s - 1],
                             .cost = bench::kCosts[panel],
                             .workers = static_cast<int>(x)};
       },
       // Machine-portable ratios for the committed end-to-end baseline
       // (BENCH_smr.json): parallel lock-free vs the sequential baseline.
       // Only "speedup/" series participate in the --compare gate.
       .after_table =
           [](bench::Mode mode, std::size_t panel,
              const std::vector<bench::Row>& rows) {
             if (mode != bench::Mode::kReal) return;
             const std::string cost =
                 psmr::exec_cost_name(bench::kCosts[panel]);
             double sequential = 0.0;
             for (const bench::Row& row : rows) {
               if (row.series == "sequential/" + cost) sequential = row.y;
             }
             if (sequential <= 0) return;
             const std::string speedup = "speedup/lock-free/" + cost;
             for (const bench::Row& row : rows) {
               if (row.series != "lock-free/" + cost) continue;
               bench::record_row("fig4", "real", speedup.c_str(), row.x,
                                 row.y / sequential);
             }
           }},
      argc, argv);
}
