#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/semaphore.h"
#include "common/spsc_ring.h"

namespace psmr {
namespace {

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

TEST(Semaphore, InitialPermitsAreConsumable) {
  Semaphore sem(3);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
}

TEST(Semaphore, ReleaseAddsPermits) {
  Semaphore sem(0);
  EXPECT_FALSE(sem.try_acquire());
  sem.release(2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
}

TEST(Semaphore, ReleaseZeroOrNegativeIsNoop) {
  Semaphore sem(0);
  sem.release(0);
  sem.release(-5);
  EXPECT_FALSE(sem.try_acquire());
  EXPECT_EQ(sem.available(), 0);
}

TEST(Semaphore, AcquireBlocksUntilRelease) {
  Semaphore sem(0);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    EXPECT_TRUE(sem.acquire());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  sem.release();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(Semaphore, CloseWakesBlockedAcquirers) {
  Semaphore sem(0);
  std::atomic<int> woken{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      EXPECT_FALSE(sem.acquire());
      woken.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sem.close();
  for (auto& t : threads) t.join();
  EXPECT_EQ(woken.load(), 4);
}

TEST(Semaphore, CloseIsImmediateEvenWithPermits) {
  // Close is a shutdown signal, not a drain: COS implementations rely on
  // insert()/get() failing immediately after close() regardless of how many
  // space/ready permits are left.
  Semaphore sem(2);
  sem.close();
  EXPECT_FALSE(sem.acquire());
  EXPECT_FALSE(sem.try_acquire());
  EXPECT_TRUE(sem.closed());
}

TEST(Semaphore, ManyProducersManyConsumersConserved) {
  Semaphore sem(0);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) sem.release();
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (sem.acquire()) consumed.fetch_add(1);
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  // All permits must eventually be consumable.
  while (consumed.load() < kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  sem.close();
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
}

TEST(Semaphore, MultiPermitAcquireWaitsForAllPermits) {
  Semaphore sem(1);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    EXPECT_TRUE(sem.acquire(4));
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  // A partial release must neither wake the waiter with a short grant nor
  // let it hold the permits it can already see.
  sem.release(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  EXPECT_EQ(sem.available(), 3);
  sem.release();
  t.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(sem.available(), 0);
}

TEST(Semaphore, CloseWakesParkedMultiPermitWaiter) {
  Semaphore sem(2);
  std::atomic<bool> returned{false};
  std::thread t([&] {
    EXPECT_FALSE(sem.acquire(3));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  sem.close();
  t.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(sem.acquire(1));
}

TEST(Semaphore, MixedSizeProducersConsumersConserved) {
  // Producers release 1..3 permits at a time and consumers take 1..3 at a
  // time. Once the producers are done, the consumers must drain the count
  // until every one of them asks for more than is left — a lost wake-up
  // leaves a consumer parked beside permits it could take — and every
  // permit is either consumed or still available.
  Semaphore sem(0);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kRounds = 1500;  // sizes cycle 1,2,3: 2 permits per round
  std::atomic<int> consumed{0};
  std::array<std::atomic<int>, kConsumers> wants{};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) sem.release(1 + i % 3);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      for (int i = c;; ++i) {
        const int n = 1 + i % 3;
        wants[static_cast<size_t>(c)].store(n);
        if (!sem.acquire(n)) return;
        consumed.fetch_add(n);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  const int released = kProducers * kRounds * 2;
  const auto drained = [&] {
    const auto left = sem.available();
    if (consumed.load() + left != released) return false;  // mid-acquire
    return std::all_of(wants.begin(), wants.end(),
                       [&](const std::atomic<int>& w) { return w > left; });
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!drained() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(drained()) << "consumed " << consumed.load() << " available "
                         << sem.available() << " of " << released;
  sem.close();
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(consumed.load() + sem.available(), released);
}

TEST(Semaphore, BlockCountersMoveOnlyWhenCallersPark) {
  Counter blocks;
  Counter blocked_ns;
  Semaphore sem(0);
  sem.instrument(&blocks, &blocked_ns);
  // Every acquire finds its permits: the fast path leaves the counters at 0.
  sem.release(10);
  EXPECT_TRUE(sem.acquire());
  EXPECT_TRUE(sem.acquire(4));
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.acquire(4));
  EXPECT_EQ(blocks.value(), 0u);
  EXPECT_EQ(blocked_ns.value(), 0u);
  // One caller parks once, however many wake-ups it takes.
  std::thread t([&] { EXPECT_TRUE(sem.acquire(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sem.release();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sem.release();
  t.join();
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(blocks.value(), 1u);
    EXPECT_GT(blocked_ns.value(), 0u);
  }
}

// ---------------------------------------------------------------------------
// BlockingQueue
// ---------------------------------------------------------------------------

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BlockingQueue, TryPopEmptyReturnsNullopt) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread t([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
}

TEST(BlockingQueue, ConcurrentProducersConsumersLoseNothing) {
  BlockingQueue<int> q;
  constexpr int kProducers = 3;
  constexpr int kItems = 5000;
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kItems; ++i) q.push(p * kItems + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum.fetch_add(*v);
        count.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  while (count.load() < kProducers * kItems) std::this_thread::yield();
  q.close();
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  const long long n = kProducers * kItems;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityRoundedToPowerOfTwo) {
  SpscRing<int> ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
}

TEST(SpscRing, PushPopSingleThread) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_EQ(ring.try_pop().value(), 1);
  EXPECT_EQ(ring.try_pop().value(), 2);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, FullRejectsPush) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  ring.try_pop();
  EXPECT_TRUE(ring.try_push(3));
}

TEST(SpscRing, ProducerConsumerTransfersInOrder) {
  SpscRing<int> ring(64);
  constexpr int kItems = 100000;
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
  EXPECT_EQ(expected, kItems);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  // Small values (< 64) are exact.
  EXPECT_EQ(h.percentile(50), 31u);
}

TEST(Histogram, PercentileWithinRelativePrecision) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.record(1'000'000);  // 1 ms
  const std::uint64_t p99 = h.percentile(99);
  EXPECT_NEAR(static_cast<double>(p99), 1e6, 1e6 * 0.02);
}

TEST(Histogram, MeanIsExact) {
  Histogram h;
  h.record(100);
  h.record(300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, PercentilesMonotone) {
  Histogram h;
  Xoshiro256 rng(1);
  for (int i = 0; i < 100000; ++i) h.record(rng.below(10'000'000));
  std::uint64_t last = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const std::uint64_t v = h.percentile(p);
    EXPECT_GE(v, last) << "p=" << p;
    last = v;
  }
}

// ---------------------------------------------------------------------------
// Xoshiro256
// ---------------------------------------------------------------------------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro, BelowRoughlyUniform) {
  Xoshiro256 rng(99);
  std::vector<int> buckets(10, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) buckets[rng.below(10)]++;
  for (int count : buckets) {
    EXPECT_NEAR(count, kSamples / 10, kSamples / 10 * 0.1);
  }
}

}  // namespace
}  // namespace psmr
