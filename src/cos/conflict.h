// Conflict relations (#C in the paper, §3.3).
//
// Two commands conflict if they access a common variable and at least one
// writes it. A relation is a plain function pointer: a service declares its
// own with it (Service::conflict()), and the tests evaluate it pairwise as
// the oracle for the COS dependency sets.
//
// Every relation here also has a *key extractor* (conflict_key_extractor
// below): it is per-key-decomposable, a # b iff some key is shared and the
// per-key write condition holds. The COS implementations find a new
// command's dependencies only through the extractor and the key-indexed
// dependency tracker (dep_tracker.h) — O(k) index probes instead of the
// paper's O(n) pairwise insert scan, with identical edge sets.
#pragma once

#include <span>

#include "cos/command.h"

namespace psmr {

using ConflictFn = bool (*)(const Command&, const Command&);

// The paper's linked-list service: the entire list is a single shared
// variable, so reads (contains) never conflict with each other, and writes
// (add) conflict with everything.
inline bool rw_conflict(const Command& a, const Command& b) {
  return is_write(a) || is_write(b);
}

// Keyset-based relation: conflict iff the key sets intersect and at least
// one command writes. Used by the KV and bank services, where commands name
// the state they touch. Relies on the Command invariant that
// keys[0..nkeys) is sorted ascending (see command.h): the intersection is a
// linear merge instead of the former O(k²) nested loop.
inline bool keyset_rw_conflict(const Command& a, const Command& b) {
  if (!is_write(a) && !is_write(b)) return false;
  std::uint8_t i = 0;
  std::uint8_t j = 0;
  while (i < a.nkeys && j < b.nkeys) {
    if (a.keys[i] == b.keys[j]) return true;
    if (a.keys[i] < b.keys[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// Degenerate relations, useful in tests and as workload extremes: the
// always-conflict relation forces sequential execution; the never-conflict
// relation allows unlimited parallelism.
inline bool always_conflict(const Command&, const Command&) { return true; }
inline bool never_conflict(const Command&, const Command&) { return false; }

// ---------------------------------------------------------------------------
// Key extraction for per-key-decomposable relations.
// ---------------------------------------------------------------------------

// A command's accesses as seen by a keyed relation: the (sorted) conflict
// keys and whether the command writes them. The decomposition contract is
//   fn(a, b) == (a.write || b.write) && keys(a) ∩ keys(b) ≠ ∅
// which keyset_rw_conflict satisfies by definition, and the three relations
// without explicit keys satisfy over at most one key (below).
struct KeyedAccess {
  std::span<const std::uint64_t> keys;  // sorted ascending
  bool write = false;
};

using KeyExtractor = KeyedAccess (*)(const Command&);

inline KeyedAccess keyset_access(const Command& c) {
  return {std::span<const std::uint64_t>(c.keys.data(), c.nkeys), is_write(c)};
}

// The single variable that rw_conflict and always_conflict treat every
// command as accessing (the paper's whole list).
inline constexpr std::uint64_t kWholeStateKey[1] = {0};

// rw_conflict: everyone touches the one shared key; writers write it.
inline KeyedAccess whole_state_access(const Command& c) {
  return {kWholeStateKey, is_write(c)};
}

// always_conflict: everyone writes the one shared key.
inline KeyedAccess whole_state_write(const Command&) {
  return {kWholeStateKey, true};
}

// never_conflict: no command touches anything another can see.
inline KeyedAccess no_access(const Command&) { return {}; }

// Returns the key extractor of each relation above, nullptr for any other
// function. Every COS finds dependencies through the extractor, so make_cos
// aborts on a relation without one.
inline KeyExtractor conflict_key_extractor(ConflictFn fn) {
  if (fn == keyset_rw_conflict) return &keyset_access;
  if (fn == rw_conflict) return &whole_state_access;
  if (fn == always_conflict) return &whole_state_write;
  if (fn == never_conflict) return &no_access;
  return nullptr;
}

}  // namespace psmr
