// Microbenchmarks of the COS primitives (google-benchmark).
//
// BM_CosCycle measures one insert+get+remove cycle of a read command while
// the graph is held at a fixed population of in-flight ("executing")
// commands, for each implementation and several populations. The per-node
// slope and base extracted from these numbers calibrate the DES cost model
// (sim/cos_models.h); see EXPERIMENTS.md for the fitted constants.
//
// BM_CosInsertOnly isolates the scheduler-side insert cost (the lock-free
// scheduler's throughput ceiling reported by the paper). BM_EbrPin and
// BM_Semaphore quantify the fixed overheads of the supporting machinery;
// BM_SemaphorePingPong times the contended scheduler-to-worker hand-off.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/semaphore.h"
#include "cos/factory.h"
#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "memory/ebr.h"
#include "workload/generator.h"

namespace {

using psmr::Command;
using psmr::CosHandle;
using psmr::CosKind;

Command read_cmd(std::uint64_t id) {
  Command c = psmr::LinkedListService::make_contains(id);
  c.id = id;
  return c;
}

// One full cycle at a steady population: `population` commands are held in
// the executing state so every traversal walks them.
void BM_CosCycle(benchmark::State& state) {
  const auto kind = static_cast<CosKind>(state.range(0));
  const auto population = static_cast<std::size_t>(state.range(1));
  auto cos = psmr::make_cos({.kind = kind,
                             .capacity = population + 8,
                             .conflict = psmr::rw_conflict});

  std::uint64_t next_id = 1;
  std::vector<CosHandle> held;
  for (std::size_t i = 0; i < population; ++i) {
    cos->insert(read_cmd(next_id++));
    held.push_back(cos->get());  // mark executing; keep in the graph
  }

  for (auto _ : state) {
    cos->insert(read_cmd(next_id++));
    CosHandle h = cos->get();
    benchmark::DoNotOptimize(h);
    cos->remove(h);
  }

  for (CosHandle& h : held) cos->remove(h);
  state.SetLabel(psmr::cos_kind_name(kind));
}

void BM_CosInsertOnly(benchmark::State& state) {
  const auto kind = static_cast<CosKind>(state.range(0));
  // Large graph so inserts never block; a worker drains implicitly by
  // get+remove every iteration to keep the population constant at ~1.
  auto cos = psmr::make_cos(
      {.kind = kind, .capacity = 1 << 16, .conflict = psmr::rw_conflict});
  std::uint64_t next_id = 1;
  for (auto _ : state) {
    cos->insert(read_cmd(next_id++));
    state.PauseTiming();
    CosHandle h = cos->get();
    cos->remove(h);
    state.ResumeTiming();
  }
  state.SetLabel(psmr::cos_kind_name(kind));
}

// Scheduler-side insert cost on a keyed workload at a full window, through
// the key-indexed dependency tracker. Each iteration fills a fresh COS
// (timed), then replaces the full COS with a new one (untimed); items/s is
// the keyed insert throughput. Rebuilding keeps the untimed part linear:
// draining the window through get() instead would rescan from the list head
// on every call. A fresh COS holds no logically removed nodes, so these rows
// do not include the lock-free sweep; BM_CosCycle does.
void BM_CosInsertKeyed(benchmark::State& state) {
  const auto kind = static_cast<CosKind>(state.range(0));
  const auto window = static_cast<std::size_t>(state.range(1));
  constexpr std::uint64_t kKeySpace = 16384;
  psmr::KvService service(/*shard_count=*/kKeySpace);
  std::vector<Command> workload = psmr::make_kv_workload(
      service, window, /*write_pct=*/20.0, kKeySpace, /*seed=*/42);
  for (std::size_t i = 0; i < workload.size(); ++i) workload[i].id = i + 1;

  const psmr::CosOptions options{.kind = kind,
                                 .capacity = window,
                                 .conflict = psmr::keyset_rw_conflict};
  auto cos = psmr::make_cos(options);
  for (auto _ : state) {
    for (const Command& c : workload) cos->insert(c);
    state.PauseTiming();
    cos = psmr::make_cos(options);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(window));
  state.SetLabel(psmr::cos_kind_name(kind));
}

void BM_EbrPin(benchmark::State& state) {
  psmr::EbrDomain domain;
  for (auto _ : state) {
    auto guard = domain.pin();
    benchmark::DoNotOptimize(&guard);
  }
}

void BM_EbrRetireFlushCycle(benchmark::State& state) {
  psmr::EbrDomain domain;
  for (auto _ : state) {
    domain.retire(new int(1));
  }
  domain.flush();
}

void BM_Semaphore(benchmark::State& state) {
  psmr::Semaphore sem(1);
  for (auto _ : state) {
    sem.acquire();
    sem.release();
  }
}

// Two threads hand one permit back and forth through a pair of semaphores;
// one iteration is a full round trip. Every acquire races the other side's
// release, so this exercises the park/wake path BM_Semaphore never reaches.
void BM_SemaphorePingPong(benchmark::State& state) {
  psmr::Semaphore ping(0);
  psmr::Semaphore pong(0);
  std::thread partner([&] {
    while (ping.acquire()) pong.release();
  });
  for (auto _ : state) {
    ping.release();
    pong.acquire();
  }
  ping.close();
  partner.join();
}

// The COS implementations every row sweeps, passed as the first argument.
constexpr CosKind kKinds[] = {CosKind::kCoarseGrained, CosKind::kFineGrained,
                              CosKind::kLockFree};

void cos_kind_args(benchmark::internal::Benchmark* bench) {
  for (CosKind kind : kKinds) bench->Arg(static_cast<int>(kind));
}

void cos_cycle_args(benchmark::internal::Benchmark* bench) {
  for (CosKind kind : kKinds) {
    for (int population : {0, 25, 75, 149}) {
      bench->Args({static_cast<int>(kind), population});
    }
  }
}

void cos_insert_keyed_args(benchmark::internal::Benchmark* bench) {
  for (CosKind kind : kKinds) {
    for (int window : {512, 8192}) {
      bench->Args({static_cast<int>(kind), window});
    }
  }
}

}  // namespace

BENCHMARK(BM_CosCycle)->Apply(cos_cycle_args)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_CosInsertOnly)
    ->Apply(cos_kind_args)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_CosInsertKeyed)
    ->Apply(cos_insert_keyed_args)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EbrPin)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_EbrRetireFlushCycle)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_Semaphore)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_SemaphorePingPong)->Unit(benchmark::kNanosecond)->UseRealTime();

BENCHMARK_MAIN();
