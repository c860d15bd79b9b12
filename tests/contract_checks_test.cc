// Death tests for the runtime contract checks added alongside the
// lock-rank checker (lock_rank_test.cc): SpscRing's single-producer/
// single-consumer thread-identity asserts (common/spsc_ring.h,
// PSMR_SPSC_CHECKS).
//
// The ring is header-only, so this TU forces the checks on before including
// it — the checking logic is exercised in every build type, exactly like
// lock_rank_test instantiating CheckedRankedMutex directly. No other TU in
// this binary includes the header, so the forced macro cannot ODR-clash.
#define PSMR_SPSC_CHECKS 1

#include "common/spsc_ring.h"

#include <thread>

#include <gtest/gtest.h>

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

// ---------------------------------------------------------------------------
// SpscRing thread-identity checks
// ---------------------------------------------------------------------------

TEST(SpscChecksDeathTest, SecondProducerThreadAborts) {
  PSMR_SKIP_IF_TSAN();
  ASSERT_DEATH(
      {
        SpscRing<int> ring(8);
        ring.try_push(1);  // main thread claims the producer role
        std::thread second([&] { ring.try_push(2); });
        second.join();
      },
      "SpscRing: single-producer.*contract violated");
}

TEST(SpscChecksDeathTest, SecondConsumerThreadAborts) {
  PSMR_SKIP_IF_TSAN();
  ASSERT_DEATH(
      {
        SpscRing<int> ring(8);
        ring.try_push(1);
        ring.try_pop();  // main thread claims the consumer role
        std::thread second([&] { ring.try_pop(); });
        second.join();
      },
      "SpscRing: single-consumer.*contract violated");
}

TEST(SpscChecks, SameThreadMayBeBothRoles) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_EQ(ring.try_pop().value(), 1);
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_EQ(ring.try_pop().value(), 2);
}

TEST(SpscChecks, DistinctProducerAndConsumerThreadsPass) {
  SpscRing<int> ring(64);
  constexpr int kItems = 1000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  int expected = 0;
  while (expected < kItems) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
}

TEST(SpscChecks, ResetRolesAllowsSynchronizedHandoff) {
  SpscRing<int> ring(8);
  std::thread first([&] { ring.try_push(1); });
  first.join();  // externally synchronized: old producer is gone
  ring.debug_reset_roles();
  EXPECT_TRUE(ring.try_push(2));  // this thread is the new producer
  EXPECT_EQ(ring.try_pop().value(), 1);
}

}  // namespace
}  // namespace psmr
