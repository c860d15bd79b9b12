// Figure 6: latency versus throughput for moderate execution cost, at 5%
// and 10% writes. Load is increased by adding closed-loop clients; each
// point reports (throughput, mean latency).
//
// Expected shape: all systems sit at similar, flat latency until they
// approach saturation, then latency rises abruptly; the lock-free scheduler
// saturates at the highest throughput.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/cos_models.h"
#include "workload/smr_driver.h"

namespace {

using psmr::CosKind;
using psmr::ExecCost;

struct System {
  const char* name;
  bool sequential;
  CosKind kind;
  int workers_real;
  int workers_sim;
};

// Worker counts per system follow the paper's Fig. 6 configuration
// (sequential, fine-grained 6, coarse-grained 12, lock-free 32).
constexpr System kSystems[] = {
    {"sequential", true, CosKind::kLockFree, 0, 0},
    {"fine-grained", false, CosKind::kFineGrained, 4, 6},
    {"coarse-grained", false, CosKind::kCoarseGrained, 4, 12},
    {"lock-free", false, CosKind::kLockFree, 4, 32},
};

void run_real(const psmr::bench::Options& options, double write_pct) {
  const auto clients = options.quick ? std::vector<int>{2, 16}
                                     : std::vector<int>{1, 2, 4, 8, 16, 32};
  psmr::bench::print_header(
      "fig6", "latency vs throughput, moderate cost",
      (std::string("real, ") + std::to_string(static_cast<int>(write_pct)) +
       "% writes")
          .c_str());
  std::printf("%16s %8s %16s %14s %14s\n", "system", "clients",
              "kops/sec", "mean ms", "p95 ms");
  for (const System& system : kSystems) {
    for (int c : clients) {
      psmr::SmrDriverConfig config;
      config.policy = system.sequential ? psmr::SchedulerPolicy::kSequential
                                        : psmr::SchedulerPolicy::kCosDag;
      config.cos.kind = system.kind;
      config.workers = system.workers_real;
      config.cost = ExecCost::kModerate;
      config.write_pct = write_pct;
      config.clients = c;
      config.pipeline = 4;
      config.warmup_ms = options.quick ? 100 : 150;
      config.measure_ms = options.quick ? 150 : 400;
      const auto result = psmr::run_smr_benchmark(config);
      std::printf("%16s %8d %16.1f %14.2f %14.2f\n", system.name, c,
                  result.throughput_kops, result.mean_latency_ms,
                  result.p95_latency_ms);
      const std::string series = std::string(system.name) + "/wr" +
                                 std::to_string(static_cast<int>(write_pct));
      psmr::bench::record_row("fig6", "real", series.c_str(),
                              result.throughput_kops, result.mean_latency_ms,
                              result.p95_latency_ms);
    }
  }
}

void run_sim(const psmr::bench::Options& options, double write_pct) {
  const auto clients =
      options.quick ? std::vector<int>{10, 100}
                    : std::vector<int>{5, 10, 25, 50, 100, 150, 200, 300};
  psmr::bench::print_header(
      "fig6", "latency vs throughput, moderate cost",
      (std::string("sim 64-core, ") +
       std::to_string(static_cast<int>(write_pct)) + "% writes")
          .c_str());
  std::printf("%16s %8s %16s %14s %14s\n", "system", "clients",
              "kops/sec", "mean ms", "p95 ms");
  for (const System& system : kSystems) {
    for (int c : clients) {
      psmr::sim::SimConfig config;
      config.smr_mode = true;
      config.sequential = system.sequential;
      config.kind = system.kind;
      config.workers = system.workers_sim;
      config.cost = ExecCost::kModerate;
      config.write_pct = write_pct;
      config.clients = c;
      if (options.quick) config.measure_ns = 50'000'000;
      const auto result = psmr::sim::simulate_cos(config);
      std::printf("%16s %8d %16.1f %14.2f %14.2f\n", system.name, c,
                  result.throughput_kops, result.mean_latency_ms,
                  result.p95_latency_ms);
      const std::string series = std::string(system.name) + "/wr" +
                                 std::to_string(static_cast<int>(write_pct));
      psmr::bench::record_row("fig6", "sim", series.c_str(),
                              result.throughput_kops, result.mean_latency_ms,
                              result.p95_latency_ms);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  std::printf("Figure 6 — latency versus throughput for moderate cost\n");
  for (double write_pct : {5.0, 10.0}) {
    if (options.run_real) run_real(options, write_pct);
    if (options.run_sim) run_sim(options, write_pct);
  }
  return psmr::bench::json_flush(options) ? 0 : 1;
}
