// Tests of the key-indexed dependency tracker (cos/dep_tracker.h).
//
// Part 1 exercises the KeyIndex hash table directly: registration,
// writer/reader filtering, duplicate-key handling, callback pruning,
// tombstones and growth.
//
// Part 2 checks that make_cos refuses a relation without a key extractor.
//
// Part 3 is the equivalence proof the COS dependency path rests on: every
// COS implementation finds dependencies only through the key index, so for
// every implementation and every relation of conflict.h, an instance driven
// through randomized insert/get/remove traffic must expose — via
// debug_edges() — exactly the dependency set the pairwise definition
// prescribes: an edge (a, b) for every live pair with a inserted before b
// and conflict(a, b). The traffic includes the shapes a key index can get
// wrong: duplicate-key commands ({k, k}, which must register and probe
// once) and empty key sets (which conflict with nothing under the keyset
// relation). Each instance is checked against a pairwise model that mirrors
// its own removals, since removal order is implementation-dependent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cos/command.h"
#include "cos/conflict.h"
#include "cos/dep_tracker.h"
#include "cos/factory.h"

namespace psmr {
namespace {

// ---------------------------------------------------------------------------
// Part 1: KeyIndex unit tests.
// ---------------------------------------------------------------------------

std::vector<void*> conflicting_nodes(KeyIndex& index,
                                     std::span<const std::uint64_t> keys,
                                     bool write) {
  std::vector<void*> nodes;
  index.for_each_conflicting(keys, write, [&](const KeyIndex::Entry& e) {
    nodes.push_back(e.node);
    return true;
  });
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

TEST(KeyIndex, WriterConflictsWithAllAccessorsOfItsKeys) {
  KeyIndex index;
  int a, b, c;
  const std::uint64_t k1[] = {10};
  const std::uint64_t k2[] = {20};
  index.add(k1, /*write=*/false, &a);
  index.add(k1, /*write=*/true, &b);
  index.add(k2, /*write=*/true, &c);

  EXPECT_EQ(conflicting_nodes(index, k1, true),
            (std::vector<void*>{std::min<void*>(&a, &b),
                                std::max<void*>(&a, &b)}));
  EXPECT_EQ(conflicting_nodes(index, k2, true), std::vector<void*>{&c});
  const std::uint64_t none[] = {30};
  EXPECT_TRUE(conflicting_nodes(index, none, true).empty());
}

TEST(KeyIndex, ReaderConflictsOnlyWithWriters) {
  KeyIndex index;
  int reader, writer;
  const std::uint64_t k[] = {7};
  index.add(k, /*write=*/false, &reader);
  index.add(k, /*write=*/true, &writer);

  EXPECT_EQ(conflicting_nodes(index, k, /*write=*/false),
            std::vector<void*>{&writer});
}

TEST(KeyIndex, DuplicateKeysRegisterOnce) {
  KeyIndex index;
  int node;
  const std::uint64_t dup[] = {5, 5};
  index.add(dup, /*write=*/true, &node);
  EXPECT_EQ(index.key_count(), 1u);
  EXPECT_EQ(index.entry_count(), 1u);

  // A probe over the duplicated key list still sees the entry once per
  // distinct key (the caller-side stamp handles multi-key dedup).
  EXPECT_EQ(conflicting_nodes(index, dup, true), std::vector<void*>{&node});

  index.remove(dup, &node);
  EXPECT_EQ(index.entry_count(), 0u);
}

TEST(KeyIndex, CallbackPrunesDeadEntries) {
  KeyIndex index;
  int dead, live;
  const std::uint64_t k[] = {42};
  index.add(k, true, &dead);
  index.add(k, true, &live);
  ASSERT_EQ(index.entry_count(), 2u);

  // First probe declares `dead` dead; it must be gone from later probes.
  index.for_each_conflicting(k, true, [&](const KeyIndex::Entry& e) {
    return e.node != &dead;
  });
  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_EQ(conflicting_nodes(index, k, true), std::vector<void*>{&live});

  // remove() of the already-pruned node is tolerated.
  index.remove(k, &dead);
  EXPECT_EQ(index.entry_count(), 1u);
}

TEST(KeyIndex, SlotEmptiedByPruningIsReusable) {
  KeyIndex index;
  int a, b;
  const std::uint64_t k[] = {42};
  index.add(k, true, &a);
  index.for_each_conflicting(k, true,
                             [](const KeyIndex::Entry&) { return false; });
  EXPECT_EQ(index.key_count(), 0u);

  index.add(k, true, &b);
  EXPECT_EQ(index.key_count(), 1u);
  EXPECT_EQ(conflicting_nodes(index, k, true), std::vector<void*>{&b});
}

TEST(KeyIndex, SurvivesGrowthAndChurn) {
  KeyIndex index(/*expected_keys=*/4);  // force many rehashes
  std::vector<int> nodes(4096);
  for (std::uint64_t i = 0; i < nodes.size(); ++i) {
    const std::uint64_t k[] = {i * 1315423911ull};
    index.add(k, (i % 3) == 0, &nodes[i]);
  }
  EXPECT_EQ(index.key_count(), nodes.size());
  EXPECT_EQ(index.entry_count(), nodes.size());

  // Remove the even half, then verify the odd half is intact.
  for (std::uint64_t i = 0; i < nodes.size(); i += 2) {
    const std::uint64_t k[] = {i * 1315423911ull};
    index.remove(k, &nodes[i]);
  }
  EXPECT_EQ(index.key_count(), nodes.size() / 2);
  for (std::uint64_t i = 1; i < nodes.size(); i += 2) {
    const std::uint64_t k[] = {i * 1315423911ull};
    ASSERT_EQ(conflicting_nodes(index, k, true), std::vector<void*>{&nodes[i]})
        << "key rank " << i;
  }

  index.clear();
  EXPECT_EQ(index.key_count(), 0u);
  EXPECT_EQ(index.entry_count(), 0u);
}

TEST(KeyIndex, ChurnOverStableLiveSetKeepsBoundedCapacity) {
  // Regression: the 70% occupancy rehash trigger counts tombstones, and
  // rehash() used to double unconditionally — so transient add/remove churn
  // over a *stable* live key-set (exactly a COS window under a large key
  // space) grew the table without bound. With the fix, a tombstone-dominated
  // trigger rebuilds at the same capacity.
  KeyIndex index(/*expected_keys=*/32);
  const std::size_t cap0 = index.slot_capacity();

  // Stable live set: 16 keys, ~25% of the initial table.
  std::vector<int> stable(16);
  for (std::uint64_t i = 0; i < stable.size(); ++i) {
    const std::uint64_t k[] = {i};
    index.add(k, /*write=*/true, &stable[i]);
  }

  // 100k distinct transient keys, each leaving a tombstone behind. Before
  // the fix this loop doubled the table past 32k slots.
  int transient = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const std::uint64_t k[] = {1000 + i};
    index.add(k, /*write=*/true, &transient);
    index.remove(k, &transient);
  }

  EXPECT_EQ(index.slot_capacity(), cap0);
  EXPECT_EQ(index.key_count(), stable.size());
  for (std::uint64_t i = 0; i < stable.size(); ++i) {
    const std::uint64_t k[] = {i};
    ASSERT_EQ(conflicting_nodes(index, k, true),
              std::vector<void*>{&stable[i]})
        << "stable key " << i << " lost in churn";
  }
}

TEST(KeyIndex, GenuinelyFullTableStillDoubles) {
  // The churn fix must not break real growth: a live key-set past the
  // occupancy threshold has to enlarge the table.
  KeyIndex index(/*expected_keys=*/32);
  const std::size_t cap0 = index.slot_capacity();
  std::vector<int> nodes(256);
  for (std::uint64_t i = 0; i < nodes.size(); ++i) {
    const std::uint64_t k[] = {i * 2654435761ull};
    index.add(k, /*write=*/true, &nodes[i]);
  }
  EXPECT_GT(index.slot_capacity(), cap0);
  EXPECT_EQ(index.key_count(), nodes.size());
  for (std::uint64_t i = 0; i < nodes.size(); ++i) {
    const std::uint64_t k[] = {i * 2654435761ull};
    ASSERT_EQ(conflicting_nodes(index, k, true), std::vector<void*>{&nodes[i]});
  }
}

// ---------------------------------------------------------------------------
// Part 2: key extractors.
// ---------------------------------------------------------------------------

TEST(ConflictKeyExtractor, MakeCosAbortsOnARelationWithoutOne) {
  const ConflictFn opaque = [](const Command&, const Command&) {
    return true;
  };
  EXPECT_EQ(conflict_key_extractor(opaque), nullptr);
  EXPECT_DEATH(make_cos({.conflict = opaque}), "");
}

// ---------------------------------------------------------------------------
// Part 3: index-vs-pairwise equivalence on full COS instances.
// ---------------------------------------------------------------------------

// Live commands in insertion order plus the pairwise-definition edge set
// under one relation.
class PairwiseModel {
 public:
  explicit PairwiseModel(ConflictFn conflict) : conflict_(conflict) {}

  void insert(const Command& c) { live_.push_back(c); }

  void remove(std::uint64_t id) {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].id == id) {
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    FAIL() << "removed command " << id << " not live in model";
  }

  std::size_t live_count() const { return live_.size(); }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected_edges() const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      for (std::size_t j = i + 1; j < live_.size(); ++j) {
        if (conflict_(live_[i], live_[j])) {
          edges.emplace_back(live_[i].id, live_[j].id);
        }
      }
    }
    std::sort(edges.begin(), edges.end());
    return edges;
  }

 private:
  const ConflictFn conflict_;
  std::vector<Command> live_;  // insertion order == ascending id
};

Command keyed_cmd(std::uint64_t id, std::uint64_t k0, std::uint64_t k1,
                  std::uint8_t nkeys, bool write) {
  Command c;
  c.id = id;
  c.mode = write ? AccessMode::kWrite : AccessMode::kRead;
  c.nkeys = nkeys;  // NOLINT(psmr-sorted-keys) test builder constructs raw commands directly
  c.keys[0] = k0;  // NOLINT(psmr-sorted-keys) test builder constructs raw commands directly
  c.keys[1] = k1;  // NOLINT(psmr-sorted-keys) test builder constructs raw commands directly
  return c;
}

// Drives one COS instance through randomized keyed traffic, mirroring every
// insert and every (implementation-chosen) removal into a pairwise model,
// and asserts debug_edges() matches the model at quiescent checkpoints.
void run_equivalence(CosKind kind, ConflictFn conflict,
                     std::uint64_t key_space, std::uint64_t seed) {
  constexpr std::size_t kWindow = 128;
  constexpr std::size_t kCommands = 10000;
  SCOPED_TRACE(std::string(cos_kind_name(kind)) +
               " key_space=" + std::to_string(key_space));

  auto cos = make_cos({.kind = kind, .capacity = kWindow, .conflict = conflict});
  PairwiseModel model(conflict);
  Xoshiro256 rng(seed);

  std::uint64_t next_id = 1;
  std::size_t round = 0;
  while (next_id <= kCommands) {
    ++round;
    // Insert a burst, staying within the window.
    std::size_t burst = 1 + rng.below(16);
    while (burst-- > 0 && next_id <= kCommands &&
           model.live_count() < kWindow) {
      Command c;
      const bool write = rng.uniform() < 0.3;
      const double shape = rng.uniform();
      if (shape < 0.03) {  // empty key set
        c = keyed_cmd(next_id, 0, 0, 0, write);
      } else if (shape < 0.06) {  // duplicate key {k, k}
        const std::uint64_t k = rng.below(key_space);
        c = keyed_cmd(next_id, k, k, 2, write);
      } else if (shape < 0.36) {  // two-key command (transfer-shaped)
        std::uint64_t a = rng.below(key_space);
        std::uint64_t b = rng.below(key_space);
        if (a == b) b = (b + 1) % key_space;
        c = keyed_cmd(next_id, std::min(a, b), std::max(a, b), 2, write);
      } else {
        c = keyed_cmd(next_id, rng.below(key_space), 0, 1, write);
      }
      ++next_id;
      ASSERT_TRUE(cos->insert(c));
      model.insert(c);
    }

    // Remove a burst; the instance picks which ready command each get()
    // returns, and the model mirrors that exact choice.
    std::size_t removals = rng.below(model.live_count() + 1);
    if (model.live_count() == kWindow && removals == 0) removals = 1;
    while (removals-- > 0) {
      CosHandle h = cos->get();
      ASSERT_TRUE(h);
      model.remove(h.cmd->id);
      cos->remove(h);
    }

    if (round % 8 == 0) {
      ASSERT_EQ(cos->debug_edges(), model.expected_edges())
          << "after " << (next_id - 1) << " inserts";
    }
  }

  // Drain to empty, checking along the way.
  while (model.live_count() > 0) {
    CosHandle h = cos->get();
    ASSERT_TRUE(h);
    model.remove(h.cmd->id);
    cos->remove(h);
    if (model.live_count() % 16 == 0) {
      ASSERT_EQ(cos->debug_edges(), model.expected_edges());
    }
  }
  EXPECT_TRUE(cos->debug_edges().empty());
  EXPECT_EQ(cos->approx_size(), 0u);
  cos->close();
}

class DepEquivalenceTest : public ::testing::TestWithParam<CosKind> {};

TEST_P(DepEquivalenceTest, IndexedMatchesPairwiseDefinitionSmallKeySpace) {
  // keyset_rw_conflict over 64 keys and a 128-slot window: heavy key reuse,
  // long per-key entry lists, constant pruning.
  run_equivalence(GetParam(), keyset_rw_conflict, /*key_space=*/64,
                  /*seed=*/17);
}

TEST_P(DepEquivalenceTest, IndexedMatchesPairwiseDefinitionLargeKeySpace) {
  // keyset_rw_conflict over 4096 keys: mostly-independent commands,
  // tombstone churn in the table.
  run_equivalence(GetParam(), keyset_rw_conflict, /*key_space=*/4096,
                  /*seed=*/23);
}

TEST_P(DepEquivalenceTest, RwConflictMatchesPairwiseDefinition) {
  // The list relation: one shared key, so a writer's entry list holds the
  // whole window and every read probes every live writer.
  run_equivalence(GetParam(), rw_conflict, /*key_space=*/64, /*seed=*/29);
}

TEST_P(DepEquivalenceTest, AlwaysConflictMatchesPairwiseDefinition) {
  // Every command writes the shared key: a full chain of edges, one ready
  // command at a time.
  run_equivalence(GetParam(), always_conflict, /*key_space=*/64,
                  /*seed=*/31);
}

TEST_P(DepEquivalenceTest, NeverConflictMatchesPairwiseDefinition) {
  // No keys at all: no edges, every command ready on insert.
  run_equivalence(GetParam(), never_conflict, /*key_space=*/64, /*seed=*/37);
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, DepEquivalenceTest,
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
