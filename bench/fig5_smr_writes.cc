// Figure 5: parallel-SMR throughput for different percentages of writes
// and execution costs, at each technique's best worker count, plus the
// sequential-SMR baseline.
//
// Expected shape: lock-free dominates the parallel techniques everywhere;
// sequential SMR overtakes the parallel ones beyond ~25% writes for
// light/moderate costs, while for heavy costs parallelism wins almost
// everywhere. (The paper's best counts in SMR: light 12/4/8, moderate
// 12/6/32, heavy 40/32/64 for coarse/fine/lock-free.)
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace bench = psmr::bench;

namespace {

// Paper's best worker counts per cost (rows) and technique (columns, in
// bench::kKinds order: coarse, fine, lock-free). Real mode runs 4 workers,
// representative on this host.
constexpr int kPaperBestWorkers[3][3] = {{12, 4, 8}, {12, 6, 32}, {40, 32, 64}};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> series = bench::kind_series();
  series.emplace_back("sequential");
  return bench::run_figure(
      {.name = "fig5",
       .title = "Figure 5 — SMR throughput for different percentages of "
                "writes and execution costs",
       .description = "SMR throughput vs write % (kops/sec)",
       .driver = bench::Driver::kSmr,
       .yield = bench::Yield::kThroughput,
       .windows = {100, 150, 150, 400},
       .x_label = "writes%",
       .panels = bench::cost_panels(),
       .series = series,
       .real_x = bench::kWritePcts,
       .sim_x = bench::kWritePcts,
       .point = [](bench::Mode mode, std::size_t panel, std::size_t s,
                   double x) -> std::optional<bench::Point> {
         if (s == 3) {
           return bench::Point{.sequential = true,
                               .cost = bench::kCosts[panel],
                               .write_pct = x};
         }
         return bench::Point{.kind = bench::kKinds[s],
                             .cost = bench::kCosts[panel],
                             .workers = mode == bench::Mode::kReal
                                            ? 4
                                            : kPaperBestWorkers[panel][s],
                             .write_pct = x};
       }},
      argc, argv);
}
