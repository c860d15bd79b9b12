// Key-indexed dependency tracker.
//
// The one way every COS implementation finds a new command's dependencies:
// O(k) hash probes over the command's conflict keys, in place of the
// paper's O(n) pairwise insert scan. Every relation in conflict.h has a key
// extractor (conflict_key_extractor()); the list relations use one shared
// key, never_conflict none. The index maps each conflict key to the list of
// *live* commands that currently access it, remembering for each whether
// the access is a write:
//
//   key -> [ {node, write}, {node, write}, ... ]   (insertion order)
//
// An inserted command then depends on exactly
//   - every live accessor of its keys, if it writes, or
//   - every live *writer* of its keys, if it reads,
// which — after de-duplication across keys — is bit-identical to the set the
// pairwise definition prescribes for the same relation (dep_tracker_test
// checks this for every variant and relation). Keeping *all* live
// accessors per key (not just the last writer plus readers-since) is what
// makes the sets identical even when several writers of one key are live at
// once; see DESIGN.md for the argument and the transitive-reduction
// trade-off.
//
// The table is open-addressed (linear probing, power-of-two capacity,
// tombstones) and per-key entry lists are small vectors. The structure is
// deliberately *unsynchronized*: every COS variant confines index access to
// its insert thread or guards it with the lock that already protects node
// deletion (see the per-variant notes in DESIGN.md). Because the guarding
// discipline lives in the callers, this class carries no capability
// annotations and no ranked mutex — data-race freedom of each variant's
// confinement is validated by the TSan CI job instead. Entries are pruned
// three ways:
//   - eagerly, by remove()/helped-remove paths that physically free nodes;
//   - lazily, when a probe observes a dead entry (the for_each_conflicting
//     callback returns false);
//   - wholesale, by clear() on COS destruction.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace psmr {

// Debug check of the sorted-keys precondition shared by add()/remove()/
// for_each_conflicting(): the adjacent-duplicate skip and the conflict
// merge in conflict.h are only correct over ascending keys (the Command
// invariant, command.h). Compiled out under NDEBUG.
inline void debug_assert_sorted_span(std::span<const std::uint64_t> keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    assert(keys[i - 1] <= keys[i] &&
           "KeyIndex requires sorted keys (Command invariant)");
  }
  (void)keys;
}

class KeyIndex {
 public:
  struct Entry {
    void* node = nullptr;
    bool write = false;
  };

  // `expected_keys` sizes the initial table (rounded up to a power of two);
  // the table grows as needed, so this is a hint, not a limit.
  explicit KeyIndex(std::size_t expected_keys = 64);

  KeyIndex(const KeyIndex&) = delete;
  KeyIndex& operator=(const KeyIndex&) = delete;

  // Registers `node` as an accessor of every key in `keys`. `keys` must be
  // sorted ascending (the Command invariant); adjacent duplicates are
  // registered once.
  void add(std::span<const std::uint64_t> keys, bool write, void* node);

  // Drops `node` from every key in `keys`. Tolerates entries already pruned
  // lazily by a probe. Slots whose entry list empties become tombstones.
  void remove(std::span<const std::uint64_t> keys, void* node);

  // Enumerates every indexed entry that a new accessor of `keys` (writing
  // iff `write`) would conflict with: all entries when writing, writer
  // entries when reading. The callback decides liveness: return true to keep
  // the entry, false to prune it from the index in place. A node accessing
  // several of `keys` is visited once per key — callers de-duplicate (the
  // COS variants stamp nodes with a per-insert sequence number).
  //
  // Fn: bool(const Entry&)
  template <typename Fn>
  void for_each_conflicting(std::span<const std::uint64_t> keys, bool write,
                            Fn&& fn) {
    debug_assert_sorted_span(keys);
    const std::uint64_t* prev = nullptr;
    for (const std::uint64_t& key : keys) {
      if (prev != nullptr && *prev == key) continue;
      prev = &key;
      Slot* slot = find(key);
      if (slot == nullptr) continue;
      std::vector<Entry>& entries = slot->entries;
      for (std::size_t i = 0; i < entries.size();) {
        if (!write && !entries[i].write) {
          ++i;  // read/read: no conflict, entry not even inspected
          continue;
        }
        if (fn(static_cast<const Entry&>(entries[i]))) {
          ++i;
        } else {
          entries[i] = entries.back();  // dead: prune in place
          entries.pop_back();
        }
      }
      if (entries.empty()) bury(slot);
    }
  }

  // Number of keys with at least one (possibly dead) entry.
  std::size_t key_count() const { return used_; }

  // Total entries across all keys, dead ones included. O(capacity).
  std::size_t entry_count() const;

  // Current table size in slots (a power of two). Exposed for the
  // bounded-capacity churn regression test; not meaningful to normal
  // callers.
  std::size_t slot_capacity() const { return slots_.size(); }

  void clear();

 private:
  enum class SlotState : std::uint8_t { kEmpty, kUsed, kTombstone };

  struct Slot {
    std::uint64_t key = 0;
    std::vector<Entry> entries;
    SlotState state = SlotState::kEmpty;
  };

  Slot* find(std::uint64_t key);
  Slot* find_or_insert(std::uint64_t key);
  void bury(Slot* slot);
  void rehash();

  std::vector<Slot> slots_;
  std::size_t used_ = 0;       // kUsed slots
  std::size_t occupied_ = 0;   // kUsed + kTombstone (drives rehash)
};

}  // namespace psmr
