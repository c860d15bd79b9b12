// Tests for the runtime lock-rank checker (common/ranked_mutex.h) and the
// memory-debug invariants (common/debug_poison.h, EbrDomain single-remover).
//
// The mutex tests instantiate CheckedRankedMutex directly rather than the
// RankedMutex alias, so the checking logic is exercised in every build type
// (the alias compiles down to the unchecked wrapper in Release).
#include "common/ranked_mutex.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/debug_poison.h"
#include "memory/ebr.h"

// Death tests fork; under TSan the forked child of a multithreaded gtest
// process reports spurious races, so the death tests skip themselves there.
#if defined(__SANITIZE_THREAD__)
#define PSMR_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSMR_TSAN_BUILD 1
#endif
#endif
#ifndef PSMR_TSAN_BUILD
#define PSMR_TSAN_BUILD 0
#endif

#if PSMR_TSAN_BUILD
#define PSMR_SKIP_IF_TSAN() GTEST_SKIP() << "death tests are skipped under TSan"
#else
#define PSMR_SKIP_IF_TSAN() \
  ::testing::FLAGS_gtest_death_test_style = "threadsafe"
#endif

namespace psmr {
namespace {

using OuterMutex = CheckedRankedMutex<lock_rank::kBroadcast>;
using InnerMutex = CheckedRankedMutex<lock_rank::kTransport>;
using NodeMutex = CheckedRankedMutex<lock_rank::kCosNode, /*AllowSameRank=*/true>;

TEST(LockRankDeathTest, LowerRankUnderHigherAborts) {
  PSMR_SKIP_IF_TSAN();
  ASSERT_DEATH(
      {
        InnerMutex inner;
        OuterMutex outer;
        MutexLock hold_inner(inner);  // kTransport held...
        MutexLock grab_outer(outer);  // ...kBroadcast < kTransport: abort
      },
      "lock-rank violation.*rank must exceed every held rank");
}

TEST(LockRankDeathTest, SameRankWithoutOptInAborts) {
  PSMR_SKIP_IF_TSAN();
  ASSERT_DEATH(
      {
        OuterMutex a;
        OuterMutex b;
        MutexLock hold_a(a);
        MutexLock hold_b(b);  // same rank, AllowSameRank=false: abort
      },
      "lock-rank violation.*same-rank nesting");
}

TEST(LockRankDeathTest, ReleasingUnheldRankAborts) {
  PSMR_SKIP_IF_TSAN();
  ASSERT_DEATH(lock_rank::record_release(lock_rank::kQueue),
               "lock-rank violation.*does not hold");
}

TEST(LockRankTest, InOrderAcquisitionPasses) {
  OuterMutex outer;
  InnerMutex inner;
  MutexLock hold_outer(outer);
  MutexLock hold_inner(inner);
}

TEST(LockRankTest, TryLockRecordsAndReleases) {
  OuterMutex outer;
  InnerMutex inner;
  ASSERT_TRUE(outer.try_lock());
  ASSERT_TRUE(inner.try_lock());
  inner.unlock();
  outer.unlock();
  // Ceiling is fully restored: re-acquiring the outer rank must pass.
  MutexLock again(outer);
}

TEST(LockRankTest, ReleaseRestoresCeiling) {
  CheckedRankedMutex<lock_rank::kSemaphore> high;
  OuterMutex low;
  { MutexLock hold_high(high); }
  // kBroadcast < kSemaphore, legal only because high was released.
  MutexLock hold_low(low);
}

TEST(LockRankTest, HandOverHandCouplingPasses) {
  // The fine-grained COS walk: hold node i and i+1 together, release i,
  // take i+2, ... — same-rank nesting with out-of-order release.
  NodeMutex nodes[4];
  nodes[0].lock();
  for (int i = 0; i + 1 < 4; ++i) {
    nodes[i + 1].lock();
    nodes[i].unlock();
  }
  nodes[3].unlock();
}

// Pass-through under contention: the checker must neither abort nor (in the
// TSan job, where this test still runs) introduce any reports of its own —
// the held-rank bookkeeping is thread-local by construction.
TEST(LockRankTest, MultithreadedPassThrough) {
  OuterMutex outer;
  InnerMutex inner;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock hold_outer(outer);
        MutexLock hold_inner(inner);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(DebugPoisonTest, WritesAlternatingDeadPattern) {
  unsigned char buf[5] = {0, 0, 0, 0, 0};
  poison_memory(buf, sizeof(buf));
  EXPECT_EQ(buf[0], 0xDE);
  EXPECT_EQ(buf[1], 0xAD);
  EXPECT_EQ(buf[2], 0xDE);
  EXPECT_EQ(buf[3], 0xAD);
  EXPECT_EQ(buf[4], 0xDE);
}

#if PSMR_MEMORY_DEBUG

TEST(EbrSingleRemoverTest, SameThreadRetiresPass) {
  EbrDomain dom;
  for (int i = 0; i < 10; ++i) dom.retire(new int(i));
  dom.flush();
}

TEST(EbrSingleRemoverDeathTest, SecondThreadRetireAborts) {
  PSMR_SKIP_IF_TSAN();
  ASSERT_DEATH(
      {
        EbrDomain dom;
        dom.retire(new int(1));
        std::thread second([&] { dom.retire(new int(2)); });
        second.join();
      },
      "single-remover invariant violated");
}

#endif  // PSMR_MEMORY_DEBUG

}  // namespace
}  // namespace psmr
