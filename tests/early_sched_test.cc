// Tests of the early-scheduling execution mode (cos/early_sched.h) and the
// redesigned CosOptions/SchedulerPolicy surface (cos/factory.h).
//
// Part 1 covers the static class maps (cos/class_map.h): routing rules and
// the soundness contract they promise the scheduler.
//
// Part 2 covers the factory surface: name round-trips for every CosKind and
// SchedulerPolicy value (including aliases), and what make_scheduler builds
// for each policy.
//
// Part 3 is the equivalence proof the tentpole rests on: for randomized
// Zipf KV, bank (with cross-class transfers) and linked-list workloads, the
// early-scheduling mode must drive a service to exactly the same
// state_digest() as the COS-DAG mode — and must do so for different worker
// counts, since the class map routes by worker count but conflict order may
// not depend on it.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "app/bank_service.h"
#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "common/metrics.h"
#include "cos/class_map.h"
#include "cos/early_sched.h"
#include "cos/factory.h"
#include "tools/options.h"
#include "workload/ds_driver.h"
#include "workload/generator.h"

namespace psmr {
namespace {

// ---------------------------------------------------------------------------
// Part 1: class maps.
// ---------------------------------------------------------------------------

Command keyed(std::uint64_t k0, std::uint64_t k1, std::uint8_t nkeys,
              bool write) {
  Command c;
  c.mode = write ? AccessMode::kWrite : AccessMode::kRead;
  c.nkeys = nkeys;  // NOLINT(psmr-sorted-keys) test builder constructs raw commands directly
  c.keys[0] = k0;  // NOLINT(psmr-sorted-keys) test builder constructs raw commands directly
  c.keys[1] = k1;  // NOLINT(psmr-sorted-keys) test builder constructs raw commands directly
  return c;
}

TEST(KeyedClassMap, SingleKeyRoutesToKeyModWorkers) {
  for (std::uint32_t workers : {1u, 2u, 4u, 7u}) {
    for (std::uint64_t key = 0; key < 32; ++key) {
      const ClassRoute r = keyed_class_map(keyed(key, 0, 1, true), workers);
      EXPECT_EQ(r.kind, ClassRoute::kWorker);
      EXPECT_EQ(r.worker, key % workers);
    }
  }
}

TEST(KeyedClassMap, SameClassPairRoutesToWorker) {
  // Keys 3 and 7 are both class 3 mod 4.
  const ClassRoute r = keyed_class_map(keyed(3, 7, 2, true), 4);
  EXPECT_EQ(r.kind, ClassRoute::kWorker);
  EXPECT_EQ(r.worker, 3u);
}

TEST(KeyedClassMap, CrossClassPairIsSync) {
  const ClassRoute r = keyed_class_map(keyed(3, 6, 2, true), 4);
  EXPECT_EQ(r.kind, ClassRoute::kSync);
}

TEST(KeyedClassMap, NoKeysIsSync) {
  EXPECT_EQ(keyed_class_map(keyed(0, 0, 0, true), 4).kind, ClassRoute::kSync);
}

TEST(KeyedClassMap, SoundForKeysetConflict) {
  // Exhaustive over small two-key commands: if two commands conflict, they
  // must share a worker or at least one must be sync.
  std::vector<Command> commands;
  std::uint64_t id = 1;
  for (std::uint64_t a = 0; a < 6; ++a) {
    for (std::uint64_t b = a; b < 6; ++b) {
      for (const bool write : {false, true}) {
        Command c = keyed(a, b, a == b ? 1 : 2, write);
        c.id = id++;
        commands.push_back(c);
      }
    }
  }
  for (const std::uint32_t workers : {1u, 2u, 3u, 4u}) {
    for (const Command& a : commands) {
      for (const Command& b : commands) {
        if (!keyset_rw_conflict(a, b)) continue;
        const ClassRoute ra = keyed_class_map(a, workers);
        const ClassRoute rb = keyed_class_map(b, workers);
        const bool ordered = ra.kind == ClassRoute::kSync ||
                             rb.kind == ClassRoute::kSync ||
                             ra.worker == rb.worker;
        ASSERT_TRUE(ordered) << "unsound at workers=" << workers;
      }
    }
  }
}

TEST(RwClassMap, WritesSyncReadsSpread) {
  Command write = LinkedListService::make_add(1);
  write.id = 5;
  EXPECT_EQ(rw_class_map(write, 4).kind, ClassRoute::kSync);

  Command read = LinkedListService::make_contains(1);
  for (std::uint64_t id = 0; id < 16; ++id) {
    read.id = id;
    const ClassRoute r = rw_class_map(read, 4);
    EXPECT_EQ(r.kind, ClassRoute::kWorker);
    EXPECT_EQ(r.worker, id % 4);
  }
}

// ---------------------------------------------------------------------------
// Part 2: factory surface.
// ---------------------------------------------------------------------------

TEST(Factory, CosKindNamesRoundTrip) {
  for (const CosKind kind :
       {CosKind::kCoarseGrained, CosKind::kFineGrained, CosKind::kLockFree}) {
    CosKind parsed{};
    ASSERT_TRUE(parse_cos_kind(cos_kind_name(kind), &parsed))
        << cos_kind_name(kind);
    EXPECT_EQ(parsed, kind);
  }
}

TEST(Factory, CosKindAliasesParse) {
  const struct {
    const char* name;
    CosKind kind;
  } cases[] = {
      {"coarse", CosKind::kCoarseGrained},
      {"fine", CosKind::kFineGrained},
      {"lockfree", CosKind::kLockFree},
  };
  for (const auto& c : cases) {
    CosKind parsed{};
    ASSERT_TRUE(parse_cos_kind(c.name, &parsed)) << c.name;
    EXPECT_EQ(parsed, c.kind);
  }
  CosKind ignored{};
  EXPECT_FALSE(parse_cos_kind("hand-over-hand", &ignored));
  EXPECT_FALSE(parse_cos_kind("", &ignored));
  // Only the paper's three kinds parse. psmr_node resolves --cos through
  // SchedulerFlags, so it refuses the same names.
  EXPECT_FALSE(parse_cos_kind("striped", &ignored));
  tools::SchedulerFlags node_flags;
  node_flags.cos = "striped";
  SchedulerPolicy policy{};
  EXPECT_FALSE(node_flags.resolve(&ignored, &policy));
}

TEST(Factory, SchedulerPolicyNamesRoundTrip) {
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kCosDag, SchedulerPolicy::kEarlyScheduling,
        SchedulerPolicy::kSequential}) {
    SchedulerPolicy parsed{};
    ASSERT_TRUE(parse_scheduler_policy(scheduler_policy_name(policy), &parsed))
        << scheduler_policy_name(policy);
    EXPECT_EQ(parsed, policy);
  }
  SchedulerPolicy parsed{};
  EXPECT_TRUE(parse_scheduler_policy("dag", &parsed));
  EXPECT_EQ(parsed, SchedulerPolicy::kCosDag);
  EXPECT_TRUE(parse_scheduler_policy("early-scheduling", &parsed));
  EXPECT_EQ(parsed, SchedulerPolicy::kEarlyScheduling);
  EXPECT_TRUE(parse_scheduler_policy("seq", &parsed));
  EXPECT_EQ(parsed, SchedulerPolicy::kSequential);
  EXPECT_FALSE(parse_scheduler_policy("eager", &parsed));
}

TEST(Factory, MakeSchedulerBuildsEachPolicy) {
  KvService service(16);
  constexpr int kWorkers = 3;
  for (CosKind kind : {CosKind::kCoarseGrained, CosKind::kFineGrained,
                       CosKind::kLockFree}) {
    // A power of two, so the rings sized to the DAG hold exactly as much.
    const CosOptions options{
        .kind = kind, .capacity = 128, .conflict = service.conflict()};
    EXPECT_EQ(make_scheduler(SchedulerPolicy::kSequential, options,
                             service.class_map(), kWorkers),
              nullptr);

    const auto dag = make_scheduler(SchedulerPolicy::kCosDag, options,
                                    service.class_map(), kWorkers);
    ASSERT_NE(dag, nullptr);
    EXPECT_STREQ(dag->name(), cos_kind_name(kind));
    EXPECT_EQ(dag->capacity(), 128u);

    const auto early = make_scheduler(SchedulerPolicy::kEarlyScheduling,
                                      options, service.class_map(), kWorkers);
    ASSERT_NE(early, nullptr);
    EXPECT_STREQ(early->name(), "early-scheduling");
    const auto* early_cos = dynamic_cast<const EarlyCos*>(early.get());
    ASSERT_NE(early_cos, nullptr);
    EXPECT_STREQ(early_cos->fallback().name(), cos_kind_name(kind));
    EXPECT_EQ(early_cos->fallback().capacity(), 128u);
    // One ring per worker, each as large as the DAG.
    EXPECT_EQ(early->capacity(), (kWorkers + 1) * 128u);
  }
}

// ---------------------------------------------------------------------------
// Part 3: early-scheduling vs COS-DAG digest equivalence.
// ---------------------------------------------------------------------------

// Executes `commands` (ids already stamped, ascending) through `cos` with
// `workers` dedicated consumer threads, waits for full drain, and returns
// the service's digest. Inserts in batches like the replica scheduler does.
std::uint64_t run_and_digest(Service& service, std::unique_ptr<Cos> cos,
                             const std::vector<Command>& commands,
                             int workers) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&service, &cos] {
      while (CosHandle h = cos->get()) {
        service.execute(*h.cmd);
        cos->remove(h);
      }
    });
  }
  constexpr std::size_t kBatch = 64;
  for (std::size_t i = 0; i < commands.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, commands.size() - i);
    EXPECT_TRUE(cos->insert_batch(std::span(commands.data() + i, n)));
  }
  while (cos->approx_size() != 0) std::this_thread::yield();
  cos->close();
  for (std::thread& t : pool) t.join();
  return service.state_digest();
}

std::uint64_t dag_digest(std::unique_ptr<Service> service,
                         const std::vector<Command>& commands, int workers) {
  auto cos = make_cos({.kind = CosKind::kLockFree,
                       .capacity = kPaperGraphSize,
                       .conflict = service->conflict()});
  return run_and_digest(*service, std::move(cos), commands, workers);
}

std::uint64_t early_digest(std::unique_ptr<Service> service,
                           const std::vector<Command>& commands, int workers) {
  auto early = make_scheduler(SchedulerPolicy::kEarlyScheduling,
                              {.kind = CosKind::kLockFree,
                               .capacity = kPaperGraphSize,
                               .conflict = service->conflict()},
                              service->class_map(), workers);
  return run_and_digest(*service, std::move(early), commands, workers);
}

void stamp_ids(std::vector<Command>* commands) {
  std::uint64_t id = 1;
  for (Command& c : *commands) c.id = id++;
}

TEST(EarlyEquivalence, ZipfKvMatchesDagDigest) {
  KvService key_source(64);
  auto commands = make_kv_workload_zipf(key_source, 20000, /*write_pct=*/30.0,
                                        /*key_space=*/4096, /*theta=*/0.99,
                                        /*seed=*/91);
  stamp_ids(&commands);
  const std::uint64_t reference =
      dag_digest(std::make_unique<KvService>(64), commands, 4);
  EXPECT_EQ(early_digest(std::make_unique<KvService>(64), commands, 4),
            reference);
  // Worker count changes the routing but must not change the outcome.
  EXPECT_EQ(early_digest(std::make_unique<KvService>(64), commands, 2),
            reference);
  EXPECT_EQ(early_digest(std::make_unique<KvService>(64), commands, 3),
            reference);
}

TEST(EarlyEquivalence, BankWithCrossClassTransfersMatchesDagDigest) {
  constexpr std::size_t kAccounts = 64;
  constexpr std::uint64_t kInitial = 10'000;
  // Uniform two-account transfers: most span classes and pay the barrier.
  auto commands = make_bank_workload(10000, /*write_pct=*/40.0, kAccounts,
                                     /*seed=*/7);
  stamp_ids(&commands);
  const std::uint64_t reference = dag_digest(
      std::make_unique<BankService>(kAccounts, kInitial), commands, 4);

  BankService bank(kAccounts, kInitial);
  auto early = make_scheduler(SchedulerPolicy::kEarlyScheduling,
                              {.kind = CosKind::kLockFree,
                               .capacity = kPaperGraphSize,
                               .conflict = bank.conflict()},
                              bank.class_map(), 4);
  EXPECT_EQ(run_and_digest(bank, std::move(early), commands, 4), reference);
  // Transfers only move money; conservation is the cross-command invariant
  // a lost update or ordering violation would break.
  EXPECT_EQ(bank.total_balance(), kAccounts * kInitial);
}

TEST(EarlyEquivalence, ListReadersAndWritersMatchDagDigest) {
  constexpr std::size_t kListSize = 512;
  auto commands = make_list_workload(10000, /*write_pct=*/15.0, kListSize,
                                     /*seed=*/3);
  stamp_ids(&commands);
  const std::uint64_t reference = dag_digest(
      std::make_unique<LinkedListService>(kListSize), commands, 4);
  EXPECT_EQ(
      early_digest(std::make_unique<LinkedListService>(kListSize), commands, 4),
      reference);
}

TEST(EarlySched, AllSyncViaNullMapStillCorrect) {
  // No class map: every command takes the barrier path; the result must
  // still match the DAG (this is the always-correct degenerate routing).
  KvService key_source(16);
  auto commands = make_kv_workload(key_source, 4000, 50.0, 256, 19);
  stamp_ids(&commands);
  const std::uint64_t reference =
      dag_digest(std::make_unique<KvService>(16), commands, 2);

  auto service = std::make_unique<KvService>(16);
  auto early = make_scheduler(SchedulerPolicy::kEarlyScheduling,
                              {.kind = CosKind::kLockFree,
                               .capacity = kPaperGraphSize,
                               .conflict = service->conflict()},
                              nullptr, 2);
  EXPECT_EQ(run_and_digest(*service, std::move(early), commands, 2),
            reference);
}

TEST(EarlySched, SchedulerCountersMove) {
  if constexpr (!kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const MetricsSnapshot before = MetricsRegistry::global().snapshot();
  KvService key_source(64);
  auto commands = make_kv_workload_zipf(key_source, 4000, 30.0, 1024, 0.5, 5);
  stamp_ids(&commands);
  early_digest(std::make_unique<KvService>(64), commands, 2);
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  EXPECT_GT(after.counter("scheduler.class_hits") -
                before.counter("scheduler.class_hits"),
            0u);
  // Zipf KV traffic is single-key; only batch-boundary effects produce
  // barriers, so only class_hits is guaranteed to move here. Bank traffic
  // exercises barrier_waits:
  auto transfers = make_bank_workload(2000, 100.0, 64, 77);
  stamp_ids(&transfers);
  early_digest(std::make_unique<BankService>(64, 1000), transfers, 2);
  const MetricsSnapshot final_snap = MetricsRegistry::global().snapshot();
  EXPECT_GT(final_snap.counter("scheduler.barrier_waits") -
                before.counter("scheduler.barrier_waits"),
            0u);
}

TEST(EarlySched, DsDriverMakesProgressUnderEarlyPolicy) {
  DsDriverConfig config;
  config.policy = SchedulerPolicy::kEarlyScheduling;
  config.cos.kind = CosKind::kLockFree;
  config.cost = ExecCost::kLight;
  config.workers = 2;
  config.warmup_ms = 20;
  config.measure_ms = 100;
  config.write_pct = 10.0;
  const DsDriverResult result = run_ds_benchmark(config);
  EXPECT_GT(result.completed_ops, 0u);
  EXPECT_GT(result.throughput_kops, 0.0);
}

}  // namespace
}  // namespace psmr
