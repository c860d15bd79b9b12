#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "memory/ebr.h"

namespace psmr {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : alive(counter) {
    alive.fetch_add(1);
  }
  ~Tracked() { alive.fetch_sub(1); }
  std::atomic<int>& alive;
  int payload = 0;
};

// ---------------------------------------------------------------------------
// EBR
// ---------------------------------------------------------------------------

TEST(Ebr, RetiredObjectsFreedAfterFlush) {
  std::atomic<int> alive{0};
  EbrDomain domain;
  for (int i = 0; i < 10; ++i) domain.retire(new Tracked(alive));
  EXPECT_EQ(alive.load(), 10);
  domain.flush();
  domain.flush();
  domain.flush();
  EXPECT_EQ(alive.load(), 0);
  EXPECT_EQ(domain.total_freed(), 10u);
}

TEST(Ebr, PinnedReaderBlocksReclamation) {
  std::atomic<int> alive{0};
  EbrDomain domain;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    auto guard = domain.pin();
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  domain.retire(new Tracked(alive));
  domain.flush();
  domain.flush();
  domain.flush();
  // The reader pinned an epoch <= the retire epoch, so the object must
  // still be alive.
  EXPECT_EQ(alive.load(), 1);

  release.store(true);
  reader.join();
  domain.flush();
  domain.flush();
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, GuardReleaseUnblocksReclamation) {
  std::atomic<int> alive{0};
  EbrDomain domain;
  auto guard = domain.pin();
  domain.retire(new Tracked(alive));
  domain.flush();
  domain.flush();
  EXPECT_EQ(alive.load(), 1);  // own pin holds the epoch
  guard.release();
  domain.flush();
  domain.flush();
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, EpochAdvancesWhenNoPins) {
  EbrDomain domain;
  const std::uint64_t before = domain.current_epoch();
  domain.retire(new int(1));
  domain.flush();
  EXPECT_GT(domain.current_epoch(), before);
}

TEST(Ebr, DestructorDrainsEverything) {
  std::atomic<int> alive{0};
  {
    EbrDomain domain;
    for (int i = 0; i < 100; ++i) domain.retire(new Tracked(alive));
  }
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, RetiredPendingReflectsLimbo) {
  EbrDomain domain;
  EXPECT_EQ(domain.retired_pending(), 0u);
  domain.retire(new int(5));
  EXPECT_EQ(domain.retired_pending(), 1u);
  domain.flush();
  domain.flush();
  EXPECT_EQ(domain.retired_pending(), 0u);
}

TEST(Ebr, ManyThreadsRetireAndReadConcurrently) {
  // The domain's contract: one retirer, any number of readers. Four readers
  // pin, read the published object and unpin in a loop, while this thread
  // replaces and retires it 8000 times. A reader must never see a freed
  // object (the sanitizers catch the access, and memory-debug builds poison
  // the payload), and everything is freed by the end.
  constexpr int kObjects = 8000;
  std::atomic<int> alive{0};
  {
    EbrDomain domain;
    std::atomic<Tracked*> current{new Tracked(alive)};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&] {
        while (true) {
          auto guard = domain.pin();
          const Tracked* seen = current.load();
          if (seen == nullptr) return;  // the retirer is done
          // Hold the object for a while, as a traversal would; volatile
          // keeps every read (a freed, poisoned payload is negative).
          int bits = 0;
          for (int k = 0; k < 64; ++k) {
            bits |= static_cast<const volatile int&>(seen->payload);
          }
          EXPECT_GE(bits, 0);
        }
      });
    }
    for (int i = 1; i <= kObjects; ++i) {
      Tracked* next = nullptr;
      if (i < kObjects) {
        next = new Tracked(alive);
        next->payload = i;
      }
      domain.retire(current.exchange(next));
      domain.flush();  // reclaim as early as the readers' pins allow
    }
    for (auto& t : readers) t.join();
    domain.flush();
    EXPECT_EQ(alive.load(), 0);
    EXPECT_EQ(domain.total_freed(), static_cast<std::uint64_t>(kObjects));
  }
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, MovedGuardKeepsPin) {
  EbrDomain domain;
  std::atomic<int> alive{0};
  {
    auto g1 = domain.pin();
    auto g2 = std::move(g1);
    domain.retire(new Tracked(alive));
    domain.flush();
    domain.flush();
    EXPECT_EQ(alive.load(), 1);  // g2 still pins
  }
  domain.flush();
  domain.flush();
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, SequentialDomainsDoNotAliasRegistrations) {
  // Regression: consecutive domains often reuse the same stack address; the
  // thread-local registration cache must not hand the second domain the
  // first domain's (stale) record, or retires land in a slot the new domain
  // never drains.
  std::atomic<int> alive{0};
  for (int round = 0; round < 5; ++round) {
    EbrDomain domain;
    for (int i = 0; i < 10; ++i) domain.retire(new Tracked(alive));
  }
  EXPECT_EQ(alive.load(), 0);
}

TEST(Ebr, ManyShortLivedDomainsLeaveOlderDomainWorking) {
  // One thread pins a long stream of domains while an older one stays
  // alive. The registration cache is bounded, so the older domain's entry
  // is evicted along the way; the thread must then find its slot again,
  // and its pin there must still hold back what the older domain retires.
  std::atomic<int> alive{0};
  EbrDomain old_domain;
  {
    auto guard = old_domain.pin();
  }
  old_domain.retire(new Tracked(alive));
  for (int round = 0; round < 1000; ++round) {
    EbrDomain domain;
    {
      auto guard = domain.pin();
    }
    domain.retire(new Tracked(alive));
    domain.flush();
  }
  EXPECT_EQ(alive.load(), 1);  // only old_domain's object is left
  {
    auto guard = old_domain.pin();
    old_domain.retire(new Tracked(alive));
    old_domain.flush();
    old_domain.flush();
    EXPECT_EQ(alive.load(), 2);  // this thread's pin holds both back
  }
  old_domain.flush();
  old_domain.flush();
  EXPECT_EQ(alive.load(), 0);
  EXPECT_EQ(old_domain.total_freed(), 2u);
  EXPECT_EQ(old_domain.retired_pending(), 0u);
}

}  // namespace
}  // namespace psmr
