#include "cos/dep_tracker.h"

#include <utility>

namespace psmr {
namespace {

std::size_t pow2_at_least(std::size_t n) {
  std::size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

// splitmix64 finalizer — the full-avalanche mix KeyIndex probes with.
std::uint64_t key_index_hash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

KeyIndex::KeyIndex(std::size_t expected_keys) {
  // Size for <=50% load at the expected key count.
  slots_.resize(pow2_at_least(expected_keys * 2));
}

KeyIndex::Slot* KeyIndex::find(std::uint64_t key) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = key_index_hash(key) & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.state == SlotState::kEmpty) return nullptr;
    if (s.state == SlotState::kUsed && s.key == key) return &s;
  }
}

KeyIndex::Slot* KeyIndex::find_or_insert(std::uint64_t key) {
  // Rehash at 70% occupancy (tombstones included, so probe chains stay
  // short even under heavy add/remove churn).
  if (occupied_ * 10 >= slots_.size() * 7) rehash();
  const std::size_t mask = slots_.size() - 1;
  Slot* grave = nullptr;
  for (std::size_t i = key_index_hash(key) & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.state == SlotState::kUsed) {
      if (s.key == key) return &s;
      continue;
    }
    if (s.state == SlotState::kTombstone) {
      if (grave == nullptr) grave = &s;
      continue;
    }
    // Empty: the key is absent. Reuse the first tombstone on the chain if
    // we passed one, else claim this slot.
    Slot* dst = grave != nullptr ? grave : &s;
    if (dst == &s) ++occupied_;
    dst->key = key;
    dst->state = SlotState::kUsed;
    ++used_;
    return dst;
  }
}

void KeyIndex::bury(Slot* slot) {
  slot->entries.clear();
  slot->state = SlotState::kTombstone;
  --used_;
}

void KeyIndex::rehash() {
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  // The 70% occupancy trigger counts tombstones. When live keys fill under
  // ~35% of the table the trigger was tombstone-dominated: rebuilding at the
  // *same* capacity drops every tombstone and restores short probe chains,
  // so sustained add/remove churn over a stable live key-set keeps a bounded
  // table instead of doubling forever. Genuinely full tables still double.
  const bool tombstone_dominated = used_ * 20 < old.size() * 7;
  slots_.resize(tombstone_dominated ? old.size() : old.size() * 2);
  used_ = 0;
  occupied_ = 0;
  for (Slot& s : old) {
    if (s.state != SlotState::kUsed) continue;
    Slot* dst = find_or_insert(s.key);
    dst->entries = std::move(s.entries);
  }
}

void KeyIndex::add(std::span<const std::uint64_t> keys, bool write,
                   void* node) {
  debug_assert_sorted_span(keys);
  const std::uint64_t* prev = nullptr;
  for (const std::uint64_t& key : keys) {
    if (prev != nullptr && *prev == key) continue;
    prev = &key;
    find_or_insert(key)->entries.push_back(Entry{node, write});
  }
}

void KeyIndex::remove(std::span<const std::uint64_t> keys, void* node) {
  debug_assert_sorted_span(keys);
  const std::uint64_t* prev = nullptr;
  for (const std::uint64_t& key : keys) {
    if (prev != nullptr && *prev == key) continue;
    prev = &key;
    Slot* slot = find(key);
    if (slot == nullptr) continue;  // already pruned lazily
    std::vector<Entry>& entries = slot->entries;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].node == node) {
        entries[i] = entries.back();
        entries.pop_back();
        break;  // a node is registered at most once per key
      }
    }
    if (entries.empty()) bury(slot);
  }
}

std::size_t KeyIndex::entry_count() const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.state == SlotState::kUsed) n += s.entries.size();
  }
  return n;
}

void KeyIndex::clear() {
  for (Slot& s : slots_) {
    s.entries.clear();
    s.state = SlotState::kEmpty;
  }
  used_ = 0;
  occupied_ = 0;
}

}  // namespace psmr
