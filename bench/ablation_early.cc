// Ablation: early scheduling vs the COS DAG, swept over conflict ratio.
//
// The paper's §7.3.1 ceiling is the parallelizer thread: every command pays
// a conflict scan and a graph insertion. Early scheduling (arXiv
// 1805.05152, cos/early_sched.h) replaces that with a static class lookup
// and a ring push for single-class commands; only cross-class commands
// still pay the DAG plus a barrier. This harness quantifies the trade: a
// Zipf-skewed single-key workload over 64 bank accounts in which a swept
// fraction of commands are cross-class transfers (classes = account mod
// workers, so every such transfer routes kSync).
//
// For each cross-class percentage both schedulers run the same command
// stream with 8 consumer threads, and three things are measured:
//   insert/<sched>      x=cross%  y=Minserts/s — time spent inside the
//                       scheduler's insert_batch calls only (the paper's
//                       bottleneck path)
//   total/<sched>       x=cross%  y=completed kops/s end to end
//   population/<sched>  x=cross%  y=mean commands resident in the
//                       scheduler structure, sampled per batch (the DAG
//                       piles up; class queues drain independently)
//   speedup/early-vs-dag x=cross% y=early/dag insert-path ratio
//
// The speedup series is a ratio of two measurements from the same run and
// machine, so it transfers across hardware; CI gates on it against the
// committed BENCH_cos.json baseline (--compare). The band is ±35% — wider
// than the single-threaded ablations' ±20% because both sides of the ratio
// are multi-threaded runs — and the committed baseline is the per-point
// minimum over repeated runs.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "app/bank_service.h"
#include "bench_util.h"
#include "common/rng.h"
#include "cos/class_map.h"
#include "cos/factory.h"

namespace {

using psmr::BankService;
using psmr::Command;
using psmr::Cos;
using psmr::CosHandle;
using psmr::CosKind;
using psmr::SchedulerPolicy;

constexpr int kWorkers = 8;
constexpr std::uint64_t kAccounts = 64;
constexpr std::size_t kBatch = 256;
// A large window (the DAG's capacity, and so each worker ring's) so neither
// insert path blocks on capacity — the sweep isolates per-command insert
// cost, not drain speed.
constexpr std::size_t kCapacity = 4096;

// `cross_pct` percent cross-class transfers (account classes differ mod
// kWorkers), rest Zipf(0.99)-skewed single-account deposits.
std::vector<Command> make_workload(std::size_t count, double cross_pct,
                                   std::uint64_t seed) {
  std::vector<Command> commands;
  commands.reserve(count);
  psmr::Xoshiro256 rng(seed);
  psmr::ZipfGenerator zipf(kAccounts, 0.99);
  for (std::size_t i = 0; i < count; ++i) {
    Command c;
    if (rng.uniform() * 100.0 < cross_pct) {
      const std::uint64_t from = zipf(rng);
      // Pick a destination in a different class so the transfer is kSync.
      std::uint64_t to = rng.below(kAccounts);
      while (to % kWorkers == from % kWorkers) to = (to + 1) % kAccounts;
      c = BankService::make_transfer(from, to, 1);
    } else {
      c = BankService::make_deposit(zipf(rng), 1);
    }
    c.id = static_cast<std::uint64_t>(i) + 1;
    commands.push_back(c);
  }
  return commands;
}

struct RunResult {
  double insert_mops = 0.0;
  double total_kops = 0.0;
  double mean_population = 0.0;
};

RunResult run_one(bool early, const std::vector<Command>& commands) {
  BankService bank(kAccounts, 1'000'000);
  const std::unique_ptr<Cos> cos = psmr::make_scheduler(
      early ? SchedulerPolicy::kEarlyScheduling : SchedulerPolicy::kCosDag,
      {.kind = CosKind::kLockFree,
       .capacity = kCapacity,
       .conflict = bank.conflict()},
      bank.class_map(), kWorkers);

  std::vector<std::thread> pool;
  pool.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&bank, &cos] {
      while (CosHandle h = cos->get()) {
        bank.execute(*h.cmd);
        cos->remove(h);
      }
    });
  }

  double insert_seconds = 0.0;
  double population_sum = 0.0;
  std::size_t samples = 0;
  const auto wall0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < commands.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, commands.size() - i);
    const auto t0 = std::chrono::steady_clock::now();
    cos->insert_batch(std::span(commands.data() + i, n));
    const auto t1 = std::chrono::steady_clock::now();
    insert_seconds += std::chrono::duration<double>(t1 - t0).count();
    population_sum += static_cast<double>(cos->approx_size());
    ++samples;
  }
  while (cos->approx_size() != 0) std::this_thread::yield();
  const auto wall1 = std::chrono::steady_clock::now();
  cos->close();
  for (std::thread& t : pool) t.join();

  const double total = static_cast<double>(commands.size());
  RunResult result;
  result.insert_mops =
      total / insert_seconds / 1e6;
  result.total_kops =
      total / std::chrono::duration<double>(wall1 - wall0).count() / 1e3;
  result.mean_population =
      samples == 0 ? 0.0 : population_sum / static_cast<double>(samples);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const psmr::bench::Options options = psmr::bench::parse_options(argc, argv);
  if (!options.run_real) {
    std::printf("ablation_early has no simulator mode; run with "
                "--mode=real\n");
    return 0;
  }

  const std::size_t count = options.quick ? 50'000 : 200'000;
  const std::vector<double> sweep = {0.0, 1.0, 5.0, 10.0, 25.0, 50.0};

  psmr::bench::print_header(
      "ablation_early",
      "early scheduling vs COS DAG over cross-class fraction", "real");
  std::printf("%9s %14s %14s %12s %12s %9s\n", "cross%", "early Mins/s",
              "dag Mins/s", "early kops", "dag kops", "speedup");

  for (const double cross : sweep) {
    const auto commands = make_workload(count, cross, /*seed=*/29);
    const RunResult early = run_one(/*early=*/true, commands);
    const RunResult dag = run_one(/*early=*/false, commands);
    const double speedup = early.insert_mops / dag.insert_mops;
    std::printf("%9.1f %14.2f %14.2f %12.1f %12.1f %8.2fx\n", cross,
                early.insert_mops, dag.insert_mops, early.total_kops,
                dag.total_kops, speedup);
    psmr::bench::record_row("ablation_early", "real", "insert/early", cross,
                            early.insert_mops);
    psmr::bench::record_row("ablation_early", "real", "insert/cos-dag", cross,
                            dag.insert_mops);
    psmr::bench::record_row("ablation_early", "real", "total/early", cross,
                            early.total_kops);
    psmr::bench::record_row("ablation_early", "real", "total/cos-dag", cross,
                            dag.total_kops);
    psmr::bench::record_row("ablation_early", "real", "population/early", cross,
                            early.mean_population);
    psmr::bench::record_row("ablation_early", "real", "population/cos-dag",
                            cross, dag.mean_population);
    psmr::bench::record_row("ablation_early", "real", "speedup/early-vs-dag",
                            cross, speedup);
  }

  if (!psmr::bench::json_flush(options)) return 1;
  const int regressions =
      psmr::bench::run_compare("ablation_early", options, /*band=*/0.35);
  return regressions == 0 ? 0 : 1;
}
