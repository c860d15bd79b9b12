// The Conflict-Ordered Set (COS) abstract data type — the paper's §3.3.
//
// Sequential specification:
//   insert(c)  adds command c; calls are made in atomic-broadcast delivery
//              order by a single scheduler thread.
//   get()      returns a command c such that (a) c is in the structure,
//              (b) no previous get returned c, and (c) no earlier-inserted
//              conflicting command is still in the structure. Blocks until
//              such a command exists.
//   remove(c)  removes an executed command, potentially making successors
//              available to get().
//
// All implementations additionally provide close(): a shutdown signal that
// unblocks insert()/get() so worker pools can drain (insert returns false,
// get returns a null handle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cos/command.h"
#include "cos/conflict.h"

namespace psmr {

// Opaque reference to an in-structure command, returned by get() and passed
// back to remove(). `cmd` stays valid until remove() is called on the handle.
struct CosHandle {
  const Command* cmd = nullptr;
  void* node = nullptr;

  explicit operator bool() const { return node != nullptr; }
};

class Cos {
 public:
  virtual ~Cos() = default;

  // Single-threaded (scheduler only). Inserts a batch in delivery order,
  // with the same result as inserting its commands one by one;
  // implementations may amortize per-call costs across the batch (the
  // lock-free DAG takes the batch's space permits in one semaphore
  // acquisition — the insert thread is its throughput ceiling, §7.3.1).
  // Blocks while the structure is full. Returns false iff the structure was
  // closed mid-batch.
  virtual bool insert_batch(std::span<const Command> batch) = 0;

  // insert_batch() of the one command `c`.
  bool insert(const Command& c) { return insert_batch({&c, 1}); }

  // Multi-threaded (workers). Blocks until a dependency-free command is
  // available. Returns a null handle iff the structure was closed.
  virtual CosHandle get() = 0;

  // Multi-threaded (workers). `h` must have been returned by get() exactly
  // once and not yet removed.
  virtual void remove(CosHandle h) = 0;

  // Unblocks all pending and future insert()/get() calls. Idempotent.
  virtual void close() = 0;

  // Testing hook: the current dependency edges as (dependency id,
  // dependent id) pairs, sorted ascending. Callers must guarantee
  // quiescence — no concurrent insert/get/remove. Used by the tests that
  // compare the edges with the pairwise definition; not part of the COS
  // specification.
  virtual std::vector<std::pair<std::uint64_t, std::uint64_t>> debug_edges() {
    return {};
  }

  virtual std::size_t capacity() const = 0;

  // Approximate number of commands currently held (inserted, not removed).
  virtual std::size_t approx_size() const = 0;

  virtual const char* name() const = 0;
};

}  // namespace psmr
