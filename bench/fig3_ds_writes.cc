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
#include <optional>

#include "bench_util.h"

namespace {

namespace bench = psmr::bench;

// Paper's best worker counts per cost (rows) and technique (columns, in
// bench::kKinds order: coarse, fine, lock-free).
constexpr int kPaperBestWorkers[3][3] = {{10, 1, 2}, {12, 6, 16}, {48, 32, 64}};

// The worker count with the highest 0%-writes throughput on this host.
int find_best_workers_real(psmr::CosKind kind, psmr::ExecCost cost,
                           bool quick) {
  int best = 1;
  double best_throughput = -1;
  for (int w : {1, 2, 4, 8, 16}) {
    const bench::Result result = bench::measure(
        bench::Driver::kStandalone, bench::Mode::kReal,
        {.kind = kind, .cost = cost, .workers = w}, {30, 60, 30, 120}, quick);
    if (result.kops > best_throughput) {
      best_throughput = result.kops;
      best = w;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  int workers[3] = {};  // per technique, for the table being run
  return bench::run_figure(
      {.name = "fig3",
       .title = "Figure 3 — throughput for different percentages of writes "
                "and execution costs",
       .description = "DS throughput vs write % (kops/sec)",
       .driver = bench::Driver::kStandalone,
       .yield = bench::Yield::kThroughput,
       .windows = {30, 80, 80, 200},
       .x_label = "writes%",
       .panels = bench::cost_panels(),
       .series = bench::kind_series(),
       .real_x = bench::kWritePcts,
       .sim_x = bench::kWritePcts,
       .point = [&workers](bench::Mode, std::size_t panel, std::size_t series,
                           double x) -> std::optional<bench::Point> {
         return bench::Point{.kind = bench::kKinds[series],
                             .cost = bench::kCosts[panel],
                             .workers = workers[series],
                             .write_pct = x};
       },
       .before_table =
           [&workers](bench::Mode mode, std::size_t panel, bool quick) {
             for (int k = 0; k < 3; ++k) {
               workers[k] = mode == bench::Mode::kSim
                                ? kPaperBestWorkers[panel][k]
                                : find_best_workers_real(bench::kKinds[k],
                                                         bench::kCosts[panel],
                                                         quick);
             }
             std::printf("workers: coarse-grained %d, fine-grained %d, "
                         "lock-free %d\n",
                         workers[0], workers[1], workers[2]);
           }},
      argc, argv);
}
