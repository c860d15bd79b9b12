// Sequential-specification tests of the COS abstract data type, run against
// all four implementations (TEST_P over CosKind). Blocking behaviours are
// exercised with helper threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "app/bank_service.h"
#include "app/linked_list_service.h"
#include "cos/factory.h"

namespace psmr {
namespace {

Command read_cmd(std::uint64_t id) {
  Command c = LinkedListService::make_contains(id);
  c.id = id;
  return c;
}

Command write_cmd(std::uint64_t id) {
  Command c = LinkedListService::make_add(id);
  c.id = id;
  return c;
}

class CosSemanticsTest : public ::testing::TestWithParam<CosKind> {
 protected:
  std::unique_ptr<Cos> make(std::size_t max_size = 16,
                            ConflictFn conflict = rw_conflict) {
    return make_cos(
        {.kind = GetParam(), .capacity = max_size, .conflict = conflict});
  }
};

TEST_P(CosSemanticsTest, Name) {
  auto cos = make();
  EXPECT_STREQ(cos->name(), cos_kind_name(GetParam()));
}

TEST_P(CosSemanticsTest, InsertGetRemoveRoundTrip) {
  auto cos = make();
  ASSERT_TRUE(cos->insert(read_cmd(1)));
  CosHandle h = cos->get();
  ASSERT_TRUE(h);
  EXPECT_EQ(h.cmd->id, 1u);
  EXPECT_EQ(h.cmd->op, LinkedListService::kContains);
  cos->remove(h);
  EXPECT_EQ(cos->approx_size(), 0u);
}

TEST_P(CosSemanticsTest, IndependentReadsAllAvailableBeforeAnyRemove) {
  auto cos = make();
  for (std::uint64_t i = 1; i <= 3; ++i) ASSERT_TRUE(cos->insert(read_cmd(i)));
  std::vector<CosHandle> handles;
  for (int i = 0; i < 3; ++i) {
    CosHandle h = cos->get();
    ASSERT_TRUE(h);
    handles.push_back(h);
  }
  // Oldest-first handout.
  EXPECT_EQ(handles[0].cmd->id, 1u);
  EXPECT_EQ(handles[1].cmd->id, 2u);
  EXPECT_EQ(handles[2].cmd->id, 3u);
  for (CosHandle& h : handles) cos->remove(h);
}

TEST_P(CosSemanticsTest, GetNeverReturnsSameCommandTwice) {
  auto cos = make();
  for (std::uint64_t i = 1; i <= 8; ++i) ASSERT_TRUE(cos->insert(read_cmd(i)));
  std::vector<bool> seen(9, false);
  std::vector<CosHandle> handles;
  for (int i = 0; i < 8; ++i) {
    CosHandle h = cos->get();
    ASSERT_TRUE(h);
    EXPECT_FALSE(seen[h.cmd->id]);
    seen[h.cmd->id] = true;
    handles.push_back(h);
  }
  for (CosHandle& h : handles) cos->remove(h);
}

TEST_P(CosSemanticsTest, ReadAfterWriteWaitsForWriteRemoval) {
  auto cos = make();
  ASSERT_TRUE(cos->insert(write_cmd(1)));
  ASSERT_TRUE(cos->insert(read_cmd(2)));

  CosHandle w = cos->get();
  ASSERT_TRUE(w);
  EXPECT_EQ(w.cmd->id, 1u);

  std::atomic<bool> got_read{false};
  std::thread getter([&] {
    CosHandle r = cos->get();
    ASSERT_TRUE(r);
    EXPECT_EQ(r.cmd->id, 2u);
    got_read.store(true);
    cos->remove(r);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(got_read.load()) << "read handed out while conflicting write "
                                   "still in structure";
  cos->remove(w);
  getter.join();
  EXPECT_TRUE(got_read.load());
}

TEST_P(CosSemanticsTest, WriteWaitsForAllEarlierReads) {
  auto cos = make();
  ASSERT_TRUE(cos->insert(read_cmd(1)));
  ASSERT_TRUE(cos->insert(read_cmd(2)));
  ASSERT_TRUE(cos->insert(write_cmd(3)));

  CosHandle r1 = cos->get();
  CosHandle r2 = cos->get();
  ASSERT_TRUE(r1);
  ASSERT_TRUE(r2);

  std::atomic<bool> got_write{false};
  std::thread getter([&] {
    CosHandle w = cos->get();
    ASSERT_TRUE(w);
    EXPECT_EQ(w.cmd->id, 3u);
    got_write.store(true);
    cos->remove(w);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got_write.load());
  cos->remove(r1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got_write.load()) << "write released after only one of two "
                                    "earlier reads was removed";
  cos->remove(r2);
  getter.join();
  EXPECT_TRUE(got_write.load());
}

TEST_P(CosSemanticsTest, WritesHandedOutInInsertionOrder) {
  auto cos = make();
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(cos->insert(write_cmd(i)));
  }
  for (std::uint64_t i = 1; i <= 4; ++i) {
    CosHandle h = cos->get();
    ASSERT_TRUE(h);
    EXPECT_EQ(h.cmd->id, i);
    cos->remove(h);
  }
}

TEST_P(CosSemanticsTest, InsertBlocksWhenFull) {
  auto cos = make(/*max_size=*/2);
  ASSERT_TRUE(cos->insert(read_cmd(1)));
  ASSERT_TRUE(cos->insert(read_cmd(2)));

  std::atomic<bool> third_inserted{false};
  std::thread inserter([&] {
    EXPECT_TRUE(cos->insert(read_cmd(3)));
    third_inserted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_inserted.load()) << "insert did not block on full graph";

  CosHandle h = cos->get();
  ASSERT_TRUE(h);
  cos->remove(h);
  inserter.join();
  EXPECT_TRUE(third_inserted.load());

  // Drain.
  for (int i = 0; i < 2; ++i) {
    CosHandle handle = cos->get();
    ASSERT_TRUE(handle);
    cos->remove(handle);
  }
}

TEST_P(CosSemanticsTest, CloseUnblocksGet) {
  auto cos = make();
  std::atomic<bool> returned_null{false};
  std::thread getter([&] {
    CosHandle h = cos->get();
    EXPECT_FALSE(h);
    returned_null.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned_null.load());
  cos->close();
  getter.join();
  EXPECT_TRUE(returned_null.load());
}

TEST_P(CosSemanticsTest, CloseUnblocksFullInsert) {
  auto cos = make(/*max_size=*/1);
  ASSERT_TRUE(cos->insert(read_cmd(1)));
  std::atomic<bool> insert_failed{false};
  std::thread inserter([&] {
    EXPECT_FALSE(cos->insert(read_cmd(2)));
    insert_failed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cos->close();
  inserter.join();
  EXPECT_TRUE(insert_failed.load());
}

TEST_P(CosSemanticsTest, InsertAfterCloseFails) {
  auto cos = make();
  cos->close();
  EXPECT_FALSE(cos->insert(read_cmd(1)));
}

TEST_P(CosSemanticsTest, CloseIsIdempotent) {
  auto cos = make();
  cos->close();
  cos->close();
  EXPECT_FALSE(cos->get());
}

TEST_P(CosSemanticsTest, ApproxSizeTracksContents) {
  auto cos = make();
  EXPECT_EQ(cos->approx_size(), 0u);
  ASSERT_TRUE(cos->insert(read_cmd(1)));
  ASSERT_TRUE(cos->insert(read_cmd(2)));
  EXPECT_EQ(cos->approx_size(), 2u);
  CosHandle h = cos->get();
  cos->remove(h);
  EXPECT_EQ(cos->approx_size(), 1u);
  h = cos->get();
  cos->remove(h);
  EXPECT_EQ(cos->approx_size(), 0u);
}

TEST_P(CosSemanticsTest, CapacityIsReported) {
  auto cos = make(37);
  EXPECT_EQ(cos->capacity(), 37u);
}

TEST_P(CosSemanticsTest, DestructorReclaimsNonEmptyStructure) {
  // Leak checkers (ASan builds) verify nodes are not leaked when the
  // structure is destroyed with commands still inside.
  auto cos = make();
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(cos->insert(i % 2 ? read_cmd(i) : write_cmd(i)));
  }
  cos.reset();
}

TEST_P(CosSemanticsTest, KeysetConflictsAllowDisjointWrites) {
  auto cos = make(16, keyset_rw_conflict);
  Command t1 = BankService::make_transfer(0, 1, 10);
  t1.id = 1;
  Command t2 = BankService::make_transfer(2, 3, 10);
  t2.id = 2;
  ASSERT_TRUE(cos->insert(t1));
  ASSERT_TRUE(cos->insert(t2));
  // Disjoint transfers are independent: both must be available at once.
  CosHandle a = cos->get();
  CosHandle b = cos->get();
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  cos->remove(a);
  cos->remove(b);
}

TEST_P(CosSemanticsTest, KeysetConflictsSerializeOverlappingWrites) {
  auto cos = make(16, keyset_rw_conflict);
  Command t1 = BankService::make_transfer(0, 1, 10);
  t1.id = 1;
  Command t2 = BankService::make_transfer(1, 2, 10);  // overlaps account 1
  t2.id = 2;
  ASSERT_TRUE(cos->insert(t1));
  ASSERT_TRUE(cos->insert(t2));
  CosHandle a = cos->get();
  ASSERT_TRUE(a);
  EXPECT_EQ(a.cmd->id, 1u);

  std::atomic<bool> got_second{false};
  std::thread getter([&] {
    CosHandle b = cos->get();
    ASSERT_TRUE(b);
    EXPECT_EQ(b.cmd->id, 2u);
    got_second.store(true);
    cos->remove(b);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got_second.load());
  cos->remove(a);
  getter.join();
}

TEST_P(CosSemanticsTest, AlwaysConflictIsFullySequential) {
  auto cos = make(16, always_conflict);
  for (std::uint64_t i = 1; i <= 5; ++i) ASSERT_TRUE(cos->insert(read_cmd(i)));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    CosHandle h = cos->get();
    ASSERT_TRUE(h);
    EXPECT_EQ(h.cmd->id, i);
    cos->remove(h);
  }
}

TEST_P(CosSemanticsTest, NeverConflictAllowsFullWindow) {
  auto cos = make(8, never_conflict);
  for (std::uint64_t i = 1; i <= 8; ++i) ASSERT_TRUE(cos->insert(write_cmd(i)));
  std::vector<CosHandle> handles;
  for (int i = 0; i < 8; ++i) {
    CosHandle h = cos->get();
    ASSERT_TRUE(h);
    handles.push_back(h);
  }
  for (CosHandle& h : handles) cos->remove(h);
}

TEST_P(CosSemanticsTest, BatchInsertMatchesSequentialSemantics) {
  auto cos = make(32);
  std::vector<Command> batch = {read_cmd(1), write_cmd(2), read_cmd(3),
                                read_cmd(4)};
  ASSERT_TRUE(cos->insert_batch(batch));
  EXPECT_EQ(cos->approx_size(), 4u);

  // Only read 1 is initially free (the intra-batch write gates 3 and 4 and
  // waits for 1 itself).
  CosHandle h = cos->get();
  ASSERT_TRUE(h);
  EXPECT_EQ(h.cmd->id, 1u);
  cos->remove(h);

  h = cos->get();
  ASSERT_TRUE(h);
  EXPECT_EQ(h.cmd->id, 2u);
  cos->remove(h);

  CosHandle r3 = cos->get();
  CosHandle r4 = cos->get();
  ASSERT_TRUE(r3);
  ASSERT_TRUE(r4);
  EXPECT_EQ(r3.cmd->id, 3u);
  EXPECT_EQ(r4.cmd->id, 4u);
  cos->remove(r3);
  cos->remove(r4);
  EXPECT_EQ(cos->approx_size(), 0u);
}

TEST_P(CosSemanticsTest, BatchLargerThanCapacityChunks) {
  auto cos = make(/*max_size=*/4);
  std::atomic<int> drained{0};
  std::thread worker([&] {
    while (true) {
      CosHandle h = cos->get();
      if (!h) return;
      drained.fetch_add(1);
      cos->remove(h);
    }
  });
  std::vector<Command> batch;
  for (std::uint64_t i = 1; i <= 12; ++i) batch.push_back(read_cmd(i));
  EXPECT_TRUE(cos->insert_batch(batch));  // must chunk, not deadlock
  while (drained.load() < 12) std::this_thread::yield();
  cos->close();
  worker.join();
  EXPECT_EQ(drained.load(), 12);
}

TEST_P(CosSemanticsTest, EmptyBatchIsNoop) {
  auto cos = make();
  EXPECT_TRUE(cos->insert_batch({}));
  EXPECT_EQ(cos->approx_size(), 0u);
}

TEST_P(CosSemanticsTest, ReuseAfterDrainManyRounds) {
  // The structure must be fully reusable across fill/drain cycles (slots,
  // semaphores and lists all return to their initial state).
  auto cos = make(4);
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 1; i <= 4; ++i) {
      ASSERT_TRUE(
          cos->insert(i % 2 ? write_cmd(round * 10 + i) : read_cmd(round * 10 + i)));
    }
    for (int i = 0; i < 4; ++i) {
      CosHandle h = cos->get();
      ASSERT_TRUE(h);
      cos->remove(h);
    }
    ASSERT_EQ(cos->approx_size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, CosSemanticsTest,
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

}  // namespace
}  // namespace psmr
