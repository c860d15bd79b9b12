// Figure 6: latency versus throughput for moderate execution cost, at 5%
// and 10% writes. Load is increased by adding closed-loop clients; each
// point reports (throughput, mean latency).
//
// Expected shape: all systems sit at similar, flat latency until they
// approach saturation, then latency rises abruptly; the lock-free scheduler
// saturates at the highest throughput.
#include <optional>

#include "bench_util.h"

namespace bench = psmr::bench;

namespace {

struct System {
  const char* name;
  bool sequential;
  psmr::CosKind kind;
  int workers_real;
  int workers_sim;
};

// Worker counts per system follow the paper's Fig. 6 configuration
// (sequential, fine-grained 6, coarse-grained 12, lock-free 32).
constexpr System kSystems[] = {
    {"sequential", true, psmr::CosKind::kLockFree, 0, 0},
    {"fine-grained", false, psmr::CosKind::kFineGrained, 4, 6},
    {"coarse-grained", false, psmr::CosKind::kCoarseGrained, 4, 12},
    {"lock-free", false, psmr::CosKind::kLockFree, 4, 32},
};

constexpr double kWritePcts[] = {5.0, 10.0};

}  // namespace

int main(int argc, char** argv) {
  return bench::run_figure(
      {.name = "fig6",
       .title = "Figure 6 — latency versus throughput for moderate cost",
       .description = "latency vs throughput, moderate cost (kops/sec @ mean "
                      "latency)",
       .driver = bench::Driver::kSmr,
       .yield = bench::Yield::kLatency,
       .windows = {100, 150, 150, 400},
       .x_label = "clients",
       .panels = {{"5% writes", "/wr5"}, {"10% writes", "/wr10"}},
       .series = {kSystems[0].name, kSystems[1].name, kSystems[2].name,
                  kSystems[3].name},
       .real_x = {{2, 16}, {1, 2, 4, 8, 16, 32}},
       .sim_x = {{10, 100}, {5, 10, 25, 50, 100, 150, 200, 300}},
       .point = [](bench::Mode mode, std::size_t panel, std::size_t s,
                   double x) -> std::optional<bench::Point> {
         const System& system = kSystems[s];
         return bench::Point{
             .kind = system.kind,
             .sequential = system.sequential,
             .cost = psmr::ExecCost::kModerate,
             .workers = mode == bench::Mode::kReal ? system.workers_real
                                                   : system.workers_sim,
             .write_pct = kWritePcts[panel],
             .clients = static_cast<int>(x)};
       },
       .series_major = true},
      argc, argv);
}
