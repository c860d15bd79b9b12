// Concurrency and property tests of the COS implementations.
//
// The central invariant (I1/I2 in DESIGN.md): under the readers/writers
// conflict relation, a write may only start executing when *every* earlier
// command has completed and nothing else is executing; a read may only
// start when every earlier write has completed. Each command is handed out
// exactly once. We run scheduler+workers at several thread counts over
// randomized workloads and check the invariants with atomic instrumentation
// inside the (simulated) execution.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "app/bank_service.h"
#include "app/linked_list_service.h"
#include "common/rng.h"
#include "cos/factory.h"
#include "cos/lock_free.h"
#include "workload/generator.h"

namespace psmr {
namespace {

struct StressParam {
  CosKind kind;
  int workers;
  double write_pct;
};

std::string param_name(const ::testing::TestParamInfo<StressParam>& info) {
  std::string name;
  switch (info.param.kind) {
    case CosKind::kCoarseGrained:
      name = "CoarseGrained";
      break;
    case CosKind::kFineGrained:
      name = "FineGrained";
      break;
    case CosKind::kLockFree:
      name = "LockFree";
      break;
  }
  name += "_w" + std::to_string(info.param.workers);
  name += "_wr" + std::to_string(static_cast<int>(info.param.write_pct));
  return name;
}

class CosStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(CosStressTest, ConflictOrderAndExactlyOnce) {
  const StressParam param = GetParam();
  constexpr std::size_t kCommands = 20000;
  constexpr std::size_t kGraphSize = 64;

  // Pre-generate the command stream; ids are 1..kCommands in insert order.
  auto commands = make_list_workload(kCommands, param.write_pct, 1000,
                                     /*seed=*/1234 + param.workers);
  std::vector<bool> is_write(kCommands + 1, false);
  std::vector<std::uint64_t> prev_write(kCommands + 1, 0);
  std::uint64_t last_write = 0;
  for (std::size_t i = 0; i < kCommands; ++i) {
    commands[i].id = i + 1;
    is_write[i + 1] = psmr::is_write(commands[i]);
    prev_write[i + 1] = last_write;
    if (is_write[i + 1]) last_write = i + 1;
  }

  auto cos = make_cos(
      {.kind = param.kind, .capacity = kGraphSize, .conflict = rw_conflict});

  std::atomic<std::uint64_t> completed_total{0};
  std::atomic<std::uint64_t> last_completed_write{0};
  std::atomic<int> executing_now{0};
  std::vector<std::atomic<std::uint8_t>> handed_out(kCommands + 1);
  std::atomic<int> violations{0};

  std::thread scheduler([&] {
    for (const Command& c : commands) {
      if (!cos->insert(c)) return;
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < param.workers; ++w) {
    workers.emplace_back([&] {
      while (true) {
        CosHandle h = cos->get();
        if (!h) return;
        const std::uint64_t id = h.cmd->id;

        if (handed_out[id].fetch_add(1) != 0) violations.fetch_add(1);

        executing_now.fetch_add(1);
        if (is_write[id]) {
          // A write must be alone and everything earlier must be done.
          if (executing_now.load() != 1) violations.fetch_add(1);
          if (completed_total.load() != id - 1) violations.fetch_add(1);
        } else {
          // A read needs every earlier write completed.
          if (last_completed_write.load() < prev_write[id]) {
            violations.fetch_add(1);
          }
        }
        // Simulated execution: enough work to overlap with other workers.
        std::atomic_signal_fence(std::memory_order_seq_cst);

        if (is_write[id]) last_completed_write.store(id);
        completed_total.fetch_add(1);
        executing_now.fetch_sub(1);

        cos->remove(h);
      }
    });
  }

  scheduler.join();
  // Wait for everything to drain, then shut down the workers.
  while (completed_total.load() < kCommands) std::this_thread::yield();
  cos->close();
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(completed_total.load(), kCommands);
  for (std::size_t id = 1; id <= kCommands; ++id) {
    ASSERT_EQ(handed_out[id].load(), 1u) << "command " << id;
  }
  EXPECT_EQ(cos->approx_size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CosStressTest,
    ::testing::Values(
        StressParam{CosKind::kCoarseGrained, 1, 10},
        StressParam{CosKind::kCoarseGrained, 4, 0},
        StressParam{CosKind::kCoarseGrained, 4, 10},
        StressParam{CosKind::kCoarseGrained, 8, 50},
        StressParam{CosKind::kFineGrained, 1, 10},
        StressParam{CosKind::kFineGrained, 4, 0},
        StressParam{CosKind::kFineGrained, 4, 10},
        StressParam{CosKind::kFineGrained, 8, 50},
        StressParam{CosKind::kLockFree, 1, 10},
        StressParam{CosKind::kLockFree, 4, 0},
        StressParam{CosKind::kLockFree, 4, 10},
        StressParam{CosKind::kLockFree, 8, 50},
        StressParam{CosKind::kLockFree, 16, 5},
        StressParam{CosKind::kLockFree, 8, 100},
        // High thread counts: regression cover for the remove()-vs-remove()
        // successor race in the fine-grained list (use-after-free when the
        // predecessor lock was dropped before locking the successor).
        StressParam{CosKind::kFineGrained, 32, 10},
        StressParam{CosKind::kCoarseGrained, 32, 10},
        StressParam{CosKind::kLockFree, 32, 10}),
    param_name);

// Executes a real service under each COS and checks that the final state
// matches a sequential reference execution — the replica-determinism
// property that parallel SMR needs from the scheduler.
class CosDeterminismTest : public ::testing::TestWithParam<CosKind> {};

TEST_P(CosDeterminismTest, StateMatchesSequentialExecution) {
  constexpr std::size_t kCommands = 5000;
  constexpr std::size_t kListSize = 200;
  auto commands =
      make_list_workload(kCommands, /*write_pct=*/30, kListSize, /*seed=*/99);
  for (std::size_t i = 0; i < kCommands; ++i) commands[i].id = i + 1;

  // Reference: sequential execution.
  LinkedListService reference(kListSize);
  for (const Command& c : commands) reference.execute(c);

  // Parallel execution through the COS.
  LinkedListService service(kListSize);
  auto cos = make_cos(
      {.kind = GetParam(), .capacity = 32, .conflict = rw_conflict});
  std::thread scheduler([&] {
    for (const Command& c : commands) {
      if (!cos->insert(c)) return;
    }
  });
  std::atomic<std::uint64_t> done{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 6; ++w) {
    workers.emplace_back([&] {
      while (true) {
        CosHandle h = cos->get();
        if (!h) return;
        service.execute(*h.cmd);
        done.fetch_add(1);
        cos->remove(h);
      }
    });
  }
  scheduler.join();
  while (done.load() < kCommands) std::this_thread::yield();
  cos->close();
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(service.state_digest(), reference.state_digest());
  EXPECT_EQ(service.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, CosDeterminismTest,
                         ::testing::Values(CosKind::kCoarseGrained,
                                           CosKind::kFineGrained,
                                           CosKind::kLockFree),
                         [](const auto& info) {
                           switch (info.param) {
                             case CosKind::kCoarseGrained:
                               return "CoarseGrained";
                             case CosKind::kFineGrained:
                               return "FineGrained";
                             case CosKind::kLockFree:
                               return "LockFree";
                           }
                           return "Unknown";
                         });

// Keyed stress of the indexed dependency tracker under real concurrency:
// scheduler inserting bank transfers/balances while workers execute and
// remove. Exercises every variant's index-vs-removal synchronization
// (eager prune under the coarse lock, the fine-grained deletion fence, lock-free lazy pruning + EBR), which the
// single-threaded equivalence test cannot. Run under TSan this is the
// data-race check for the tracker; the conserved total balance and the
// sequential-reference digest catch missed or duplicated dependencies.
class IndexedKeyedStressTest : public ::testing::TestWithParam<CosKind> {};

TEST_P(IndexedKeyedStressTest, BankStateMatchesSequentialExecution) {
  constexpr std::size_t kCommands = 20000;
  constexpr std::size_t kAccounts = 64;
  constexpr std::size_t kWindow = 64;
  constexpr std::uint64_t kInitialBalance = 1000;
  auto commands = make_bank_workload(kCommands, /*write_pct=*/40, kAccounts,
                                     /*seed=*/4242);
  for (std::size_t i = 0; i < kCommands; ++i) commands[i].id = i + 1;

  BankService reference(kAccounts, kInitialBalance);
  for (const Command& c : commands) reference.execute(c);

  BankService service(kAccounts, kInitialBalance);
  auto cos = make_cos({.kind = GetParam(),
                       .capacity = kWindow,
                       .conflict = keyset_rw_conflict});
  std::thread scheduler([&] {
    for (const Command& c : commands) {
      if (!cos->insert(c)) return;
    }
  });
  std::atomic<std::uint64_t> done{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      while (true) {
        CosHandle h = cos->get();
        if (!h) return;
        service.execute(*h.cmd);
        done.fetch_add(1);
        cos->remove(h);
      }
    });
  }
  scheduler.join();
  while (done.load() < kCommands) std::this_thread::yield();
  cos->close();
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(service.total_balance(), kAccounts * kInitialBalance);
  EXPECT_EQ(service.state_digest(), reference.state_digest());
  EXPECT_EQ(cos->approx_size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, IndexedKeyedStressTest,
                         ::testing::Values(CosKind::kCoarseGrained,
                                           CosKind::kFineGrained,
                                           CosKind::kLockFree),
                         [](const auto& info) {
                           switch (info.param) {
                             case CosKind::kCoarseGrained:
                               return "CoarseGrained";
                             case CosKind::kFineGrained:
                               return "FineGrained";
                             case CosKind::kLockFree:
                               return "LockFree";
                           }
                           return "Unknown";
                         });

// Batch insertion must satisfy exactly the same conflict-order invariant as
// per-command insertion; this runs the lock-free single-traversal batch
// path (including intra-batch edges) under concurrency.
TEST(CosBatchStress, LockFreeBatchInsertKeepsConflictOrder) {
  constexpr std::size_t kCommands = 20000;
  constexpr std::size_t kBatch = 16;
  auto commands = make_list_workload(kCommands, 15.0, 1000, 77);
  std::vector<bool> is_write(kCommands + 1, false);
  std::vector<std::uint64_t> prev_write(kCommands + 1, 0);
  std::uint64_t last_write = 0;
  for (std::size_t i = 0; i < kCommands; ++i) {
    commands[i].id = i + 1;
    is_write[i + 1] = psmr::is_write(commands[i]);
    prev_write[i + 1] = last_write;
    if (is_write[i + 1]) last_write = i + 1;
  }

  auto cos = make_cos({.kind = CosKind::kLockFree,
                       .capacity = 64,
                       .conflict = rw_conflict});
  std::atomic<std::uint64_t> completed_total{0};
  std::atomic<std::uint64_t> last_completed_write{0};
  std::atomic<int> executing_now{0};
  std::atomic<int> violations{0};

  std::thread scheduler([&] {
    for (std::size_t i = 0; i < kCommands; i += kBatch) {
      const std::size_t take = std::min(kBatch, kCommands - i);
      if (!cos->insert_batch({commands.data() + i, take})) return;
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      while (true) {
        CosHandle h = cos->get();
        if (!h) return;
        const std::uint64_t id = h.cmd->id;
        executing_now.fetch_add(1);
        if (is_write[id]) {
          if (executing_now.load() != 1) violations.fetch_add(1);
          if (completed_total.load() != id - 1) violations.fetch_add(1);
        } else if (last_completed_write.load() < prev_write[id]) {
          violations.fetch_add(1);
        }
        if (is_write[id]) last_completed_write.store(id);
        completed_total.fetch_add(1);
        executing_now.fetch_sub(1);
        cos->remove(h);
      }
    });
  }
  scheduler.join();
  while (completed_total.load() < kCommands) std::this_thread::yield();
  cos->close();
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(completed_total.load(), kCommands);
}

// Lock-free specific: memory reclamation actually happens under churn and
// nothing pending survives destruction (ASan would flag leaks/UAF).
TEST(LockFreeReclamation, NodesAreReclaimedDuringOperation) {
  auto cos = std::make_unique<LockFreeCos>(32, rw_conflict);
  constexpr std::size_t kCommands = 30000;
  std::thread scheduler([&] {
    for (std::uint64_t i = 1; i <= kCommands; ++i) {
      Command c = (i % 10 == 0) ? LinkedListService::make_add(i)
                                : LinkedListService::make_contains(i);
      c.id = i;
      if (!cos->insert(c)) return;
    }
  });
  std::atomic<std::uint64_t> done{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      while (true) {
        CosHandle h = cos->get();
        if (!h) return;
        done.fetch_add(1);
        cos->remove(h);
      }
    });
  }
  scheduler.join();
  while (done.load() < kCommands) std::this_thread::yield();
  cos->close();
  for (auto& worker : workers) worker.join();

  // Reclamation must happen while running, not only at destruction: the
  // EBR domain must already have freed more objects than half the commands.
  // The count covers unlinked nodes and the dep_me arrays that grew past
  // their capacity, so it is not a node count.
  EXPECT_GT(cos->objects_reclaimed(), kCommands / 2);
}

// Lock-order stress of the fine-grained insert against remove() under the
// TSan CI job's lock-order graph (see DESIGN.md §8.3). insert() holds
// index_mu_ (the deletion fence) while it locks each dependency and then
// the new tail node; remove() walks its successors hand-over-hand in phase
// 2 and takes index_mu_ only with no node locks held. One hot key maximizes
// the overlap: rw_conflict puts every command on the same key, a
// write-heavy mix makes nearly every insert lock most of the window and
// nearly every phase-2 walk visit the full suffix, a small window keeps the
// two overlapping constantly, and enough workers run several removes
// against the inserter at any moment.
TEST(FineGrainedLockOrder, HotKeyInsertVsRemoveWalk) {
  constexpr std::size_t kCommands = 30000;
  constexpr std::size_t kGraphSize = 24;
  auto cos = make_cos({.kind = CosKind::kFineGrained,
                       .capacity = kGraphSize,
                       .conflict = rw_conflict});
  ASSERT_STREQ(cos->name(), "fine-grained");

  std::thread scheduler([&] {
    Xoshiro256 rng(31337);
    for (std::uint64_t i = 1; i <= kCommands; ++i) {
      // 70% writes: writes conflict with everything, so inserts record
      // edges on most of the window and phase-2 walks visit most of it.
      Command c = rng.uniform() < 0.7 ? LinkedListService::make_add(i)
                                      : LinkedListService::make_contains(i);
      c.id = i;
      if (!cos->insert(c)) return;
    }
  });
  std::atomic<std::uint64_t> done{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 6; ++w) {
    workers.emplace_back([&] {
      while (true) {
        CosHandle h = cos->get();
        if (!h) return;
        done.fetch_add(1);
        cos->remove(h);
      }
    });
  }
  scheduler.join();
  while (done.load() < kCommands) std::this_thread::yield();
  cos->close();
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(done.load(), kCommands);
}

}  // namespace
}  // namespace psmr
