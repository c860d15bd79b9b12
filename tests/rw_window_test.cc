// Tests of the simulator's exact readers/writers window (sim/rw_window.h),
// including a differential test that uses it as an oracle for the real COS
// implementations: for randomized command streams executed single-threaded,
// every implementation must hand out exactly the command the reference
// model says is the oldest ready one.
#include <gtest/gtest.h>

#include "app/linked_list_service.h"
#include "common/rng.h"
#include "cos/factory.h"
#include "sim/rw_window.h"

namespace psmr::sim {
namespace {

RwWindow::Cmd read_cmd() { return {false, -1, 0}; }
RwWindow::Cmd write_cmd() { return {true, -1, 0}; }

TEST(RwWindow, ReadsAreImmediatelyReadyWithoutWrites) {
  RwWindow window;
  EXPECT_EQ(window.insert(read_cmd()), 1);
  EXPECT_EQ(window.insert(read_cmd()), 1);
  EXPECT_EQ(window.population(), 2u);
  EXPECT_EQ(window.pop_oldest_ready(), 0u);
  EXPECT_EQ(window.pop_oldest_ready(), 1u);
  EXPECT_FALSE(window.has_ready());
}

TEST(RwWindow, WriteReadyOnlyWhenOldest) {
  RwWindow window;
  window.insert(read_cmd());         // 0, ready
  EXPECT_EQ(window.insert(write_cmd()), 0);  // 1, blocked by read 0
  const std::size_t r = window.pop_oldest_ready();
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(window.remove(r), 1);    // write becomes ready
  EXPECT_EQ(window.pop_oldest_ready(), 1u);
}

TEST(RwWindow, ReadsBehindWriteWait) {
  RwWindow window;
  window.insert(write_cmd());  // 0
  EXPECT_EQ(window.insert(read_cmd()), 0);  // 1
  EXPECT_EQ(window.insert(read_cmd()), 0);  // 2
  const std::size_t w = window.pop_oldest_ready();
  EXPECT_EQ(w, 0u);
  EXPECT_FALSE(window.has_ready());
  EXPECT_EQ(window.remove(w), 2);  // both reads freed at once
}

TEST(RwWindow, SecondWriteWaitsForFirst) {
  RwWindow window;
  window.insert(write_cmd());
  window.insert(write_cmd());
  const std::size_t first = window.pop_oldest_ready();
  EXPECT_FALSE(window.has_ready());
  EXPECT_EQ(window.remove(first), 1);
  EXPECT_EQ(window.pop_oldest_ready(), 1u);
}

TEST(RwWindow, RemoveFromMiddleKeepsIndicesStable) {
  RwWindow window;
  window.insert(read_cmd());  // 0
  window.insert(read_cmd());  // 1
  window.insert(read_cmd());  // 2
  const std::size_t a = window.pop_oldest_ready();
  const std::size_t b = window.pop_oldest_ready();
  const std::size_t c = window.pop_oldest_ready();
  window.remove(b);  // middle first
  window.remove(a);
  window.remove(c);
  EXPECT_EQ(window.population(), 0u);
  // Indices continue monotonically after the base shifted.
  EXPECT_EQ(window.insert(read_cmd()), 1);
  EXPECT_EQ(window.pop_oldest_ready(), 3u);
}

TEST(RwWindow, ReadsBetweenWritesStayBlocked) {
  RwWindow window;
  window.insert(write_cmd());  // 0
  window.insert(read_cmd());   // 1
  window.insert(write_cmd());  // 2
  window.insert(read_cmd());   // 3 — behind write 2
  const std::size_t w0 = window.pop_oldest_ready();
  EXPECT_EQ(window.remove(w0), 1);  // frees read 1 only (write 2 blocks 3)
  EXPECT_EQ(window.pop_oldest_ready(), 1u);
  EXPECT_FALSE(window.has_ready());  // write 2 still waits on read 1
  EXPECT_EQ(window.remove(1), 1);    // now write 2 is ready
  EXPECT_EQ(window.pop_oldest_ready(), 2u);
  EXPECT_EQ(window.remove(2), 1);    // read 3 freed
  EXPECT_EQ(window.pop_oldest_ready(), 3u);
}

TEST(RwWindow, PopulationAndWriteCountsTrack) {
  RwWindow window;
  window.insert(write_cmd());
  window.insert(read_cmd());
  EXPECT_EQ(window.population(), 2u);
  EXPECT_EQ(window.present_writes(), 1u);
  const std::size_t w = window.pop_oldest_ready();
  window.remove(w);
  EXPECT_EQ(window.population(), 1u);
  EXPECT_EQ(window.present_writes(), 0u);
}

// ---------------------------------------------------------------------------
// Differential oracle: real COS vs RwWindow, randomized single-threaded runs
// ---------------------------------------------------------------------------

class CosOracleTest : public ::testing::TestWithParam<psmr::CosKind> {};

TEST_P(CosOracleTest, HandoutOrderMatchesReferenceModel) {
  psmr::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    auto cos = psmr::make_cos(
        {.kind = GetParam(), .capacity = 32, .conflict = psmr::rw_conflict});
    RwWindow window;
    std::vector<std::size_t> outstanding_real;  // handles by insertion index
    std::vector<psmr::CosHandle> handles(4096);

    std::uint64_t next_id = 1;
    int in_structure = 0;
    std::vector<std::size_t> executing;  // indices currently handed out

    for (int step = 0; step < 2000; ++step) {
      const double dice = rng.uniform();
      if ((dice < 0.45 && in_structure < 30) || in_structure == 0) {
        // Insert.
        const bool is_write = rng.uniform() < 0.25;
        psmr::Command c =
            is_write ? psmr::LinkedListService::make_add(next_id)
                     : psmr::LinkedListService::make_contains(next_id);
        c.id = next_id;
        ASSERT_TRUE(cos->insert(c));
        window.insert({is_write, -1, 0});
        ++next_id;
        ++in_structure;
      } else if (dice < 0.75 && window.has_ready()) {
        // Get: the real COS must return exactly the model's oldest ready.
        const std::size_t expected_index = window.pop_oldest_ready();
        psmr::CosHandle h = cos->get();
        ASSERT_TRUE(h);
        ASSERT_EQ(h.cmd->id, expected_index + 1)
            << cos->name() << " handed out a different command";
        handles[expected_index] = h;
        executing.push_back(expected_index);
      } else if (!executing.empty()) {
        // Remove a random in-flight command.
        const std::size_t pick = rng.below(executing.size());
        const std::size_t index = executing[pick];
        executing.erase(executing.begin() + static_cast<long>(pick));
        cos->remove(handles[index]);
        window.remove(index);
        --in_structure;
      }
    }
    // Drain.
    while (window.has_ready()) {
      const std::size_t expected_index = window.pop_oldest_ready();
      psmr::CosHandle h = cos->get();
      ASSERT_TRUE(h);
      ASSERT_EQ(h.cmd->id, expected_index + 1);
      cos->remove(h);
      window.remove(expected_index);
      --in_structure;
    }
    for (std::size_t index : executing) {
      cos->remove(handles[index]);
      window.remove(index);
      --in_structure;
    }
    ASSERT_EQ(cos->approx_size(), static_cast<std::size_t>(in_structure));
  }
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, CosOracleTest,
                         ::testing::Values(psmr::CosKind::kCoarseGrained,
                                           psmr::CosKind::kFineGrained,
                                           psmr::CosKind::kLockFree),
                         [](const auto& info) {
                           switch (info.param) {
                             case psmr::CosKind::kCoarseGrained:
                               return "CoarseGrained";
                             case psmr::CosKind::kFineGrained:
                               return "FineGrained";
                             case psmr::CosKind::kLockFree:
                               return "LockFree";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace psmr::sim
