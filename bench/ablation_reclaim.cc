// Ablation: memory-reclamation strategy for the lock-free COS.
//
// The paper's algorithm delegates reclamation to the JVM garbage collector.
// This repo's port must reclaim explicitly; this bench quantifies that
// choice three ways:
//  (1) end-to-end lock-free COS throughput with EBR vs. leak-until-teardown
//      (the leak mode approximates "a GC that never runs": an upper bound
//      on how much reclamation could possibly cost on the hot path);
//  (2) the raw cost of an EBR retire;
//  (3) EBR bookkeeping left pending at the end of a run (bounded limbo).
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "cos/lock_free.h"
#include "memory/ebr.h"
#include "app/linked_list_service.h"

namespace {

using psmr::Command;
using psmr::CosHandle;
using psmr::LockFreeCos;
using psmr::LockFreeReclaim;

double run_lockfree(LockFreeReclaim mode, int workers, std::uint64_t ms,
                    std::uint64_t* reclaimed, std::size_t* pending) {
  LockFreeCos cos(150, psmr::rw_conflict, mode);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};

  std::thread scheduler([&] {
    std::uint64_t id = 1;
    while (!stop.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      Command c = (id % 10 == 0) ? psmr::LinkedListService::make_add(id)
                                 : psmr::LinkedListService::make_contains(id);
      c.id = id++;
      if (!cos.insert(c)) return;
    }
  });
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      while (true) {
        CosHandle h = cos.get();
        if (!h) return;
        completed.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
        cos.remove(h);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // warmup
  const std::uint64_t before = completed.load();
  psmr::Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  const std::uint64_t elapsed = watch.elapsed_ns();
  const std::uint64_t after = completed.load();

  stop.store(true);
  cos.close();
  scheduler.join();
  for (auto& t : threads) t.join();

  *reclaimed = cos.nodes_reclaimed();
  *pending = cos.nodes_pending_reclaim();
  return static_cast<double>(after - before) /
         (static_cast<double>(elapsed) * 1e-9) / 1000.0;
}

void raw_retire_cost() {
  constexpr int kObjects = 200000;

  psmr::EbrDomain ebr;
  psmr::Stopwatch ebr_watch;
  for (int i = 0; i < kObjects; ++i) ebr.retire(new int(i));
  ebr.flush();
  ebr.flush();
  const double ebr_ns =
      static_cast<double>(ebr_watch.elapsed_ns()) / kObjects;

  std::printf("\nraw retire+reclaim cost per object:\n");
  std::printf("  EBR:            %8.1f ns\n", ebr_ns);
  psmr::bench::csv_row("ablation_reclaim", "real", "retire/ebr", 0, ebr_ns);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = psmr::bench::parse_options(argc, argv);
  const std::uint64_t ms = options.quick ? 150 : 400;
  std::printf("Ablation — reclamation strategy in the lock-free COS\n");
  std::printf("%10s %10s %16s %14s %14s\n", "mode", "workers", "kops/sec",
              "reclaimed", "pending");
  for (int workers : {1, 4, 8}) {
    for (auto mode : {LockFreeReclaim::kEpoch, LockFreeReclaim::kLeak}) {
      std::uint64_t reclaimed = 0;
      std::size_t pending = 0;
      const double kops = run_lockfree(mode, workers, ms, &reclaimed,
                                       &pending);
      const char* name = mode == LockFreeReclaim::kEpoch ? "ebr" : "leak";
      std::printf("%10s %10d %16.1f %14llu %14zu\n", name, workers, kops,
                  static_cast<unsigned long long>(reclaimed), pending);
      const std::string series = std::string("throughput/") + name;
      psmr::bench::csv_row("ablation_reclaim", "real", series.c_str(),
                           workers, kops);
    }
  }
  raw_retire_cost();
  psmr::bench::csv_flush();
  return 0;
}
