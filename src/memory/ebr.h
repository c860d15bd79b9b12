// Epoch-based reclamation (EBR).
//
// The paper's lock-free DAG (§6) is written for a garbage-collected runtime:
// its traversal-safety argument says "garbage collection ensures that the
// by-passed node during helpedRemove will still be valid in memory since
// lfGet holds a reference to it". In C++ we reproduce exactly that guarantee
// with epochs: a thread *pins* the current epoch before traversing the graph
// and unpins afterwards; a node unlinked from the graph is *retired* with the
// epoch current at unlink time and only freed once the global epoch has moved
// two steps past it, at which point no traversal can still hold a reference.
//
// Design notes:
//  - Threads register lazily, so callers just do `auto g = domain.pin();`.
//    A small direct-mapped thread-local cache, keyed by a never-reused
//    domain id, makes the lookup O(1) and bounded however many domains a
//    thread pins over its life; on a miss the thread finds its own slot by
//    owner token before it claims a new one.
//  - One thread retires: the lock-free COS confines physical removal to
//    its insert thread (§6.2.1). Retired nodes go on the domain's one limbo
//    list, which only that thread touches, so the retire path takes no
//    lock. PSMR_MEMORY_DEBUG builds abort on a retire from a second thread.
//  - Epoch advancement is attempted opportunistically on retire and can be
//    forced with flush(), which the retiring thread may call at any time
//    and any thread once the domain is quiescent (no pins, no retires).
//  - Memory orders are seq_cst on the pin/advance handshake, per the C++
//    Core Guidelines' advice to prefer the sequentially consistent model in
//    hand-written lock-free code; the cost is negligible next to the graph
//    operations themselves.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/debug_poison.h"
#include "common/padded.h"

namespace psmr {

class EbrDomain {
 public:
  static constexpr std::size_t kMaxThreads = 512;
  static constexpr std::uint64_t kIdle = ~0ull;

  EbrDomain();
  ~EbrDomain();

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  // RAII pin on the current epoch. Movable, not copyable.
  class Guard {
   public:
    Guard(Guard&& other) noexcept : cell_(other.cell_) { other.cell_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard() { release(); }

    // Early unpin (idempotent).
    void release() {
      if (cell_ != nullptr) {
        cell_->store(kIdle, std::memory_order_release);
        cell_ = nullptr;
      }
    }

   private:
    friend class EbrDomain;
    explicit Guard(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
    std::atomic<std::uint64_t>* cell_;
  };

  // Pins the calling thread to the current epoch. Nested pins on the same
  // thread are not supported (callers pin once per COS operation).
  Guard pin();

  // Defers destruction of `node` until no pinned thread can reference it.
  // Must be called after `node` became unreachable from the shared structure,
  // and always from the same thread (the domain's one retirer).
  template <typename T>
  void retire(T* node) {
#if PSMR_MEMORY_DEBUG
    // Poison after the destructor so a traversal that outlives its grace
    // period reads 0xDEAD garbage instead of stale-but-plausible bytes.
    retire_raw(node, [](void* p) {
      T* t = static_cast<T*>(p);
      t->~T();
      poison_memory(p, sizeof(T));
      if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
        ::operator delete(p, std::align_val_t(alignof(T)));
      } else {
        ::operator delete(p);
      }
    });
#else
    retire_raw(node, [](void* p) { delete static_cast<T*>(p); });
#endif
  }

  void retire_raw(void* ptr, void (*deleter)(void*));

  // Tries to advance the epoch and reclaim everything reclaimable from the
  // limbo list. Returns the number of objects freed. Only the retirer may
  // call it, or any thread once the domain is quiescent.
  std::size_t flush();

  // Frees everything in the limbo list. Caller must guarantee no thread
  // is pinned and no further retires happen. Called by the destructor;
  // exposed for tests.
  void drain_all_unsafe();

  std::uint64_t current_epoch() const {
    return global_epoch_.value.load(std::memory_order_seq_cst);
  }

  // Statistics (for tests). retired_pending() reads the limbo list, so the
  // same callers as flush().
  std::size_t retired_pending() const { return limbo_.size(); }
  std::uint64_t total_freed() const {
    return total_freed_.value.load(std::memory_order_relaxed);
  }

 private:
  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    std::uint64_t epoch;
  };

  struct ThreadRec {
    Padded<std::atomic<std::uint64_t>> epoch;  // kIdle when not pinned
    std::atomic<std::uintptr_t> owner{0};  // registering thread's token
    ThreadRec() { epoch.value.store(kIdle, std::memory_order_relaxed); }
  };

  ThreadRec* rec_for_current_thread();
  bool try_advance();
  std::size_t reclaim();

  const std::uint64_t id_;
  Padded<std::atomic<std::uint64_t>> global_epoch_;
  std::unique_ptr<ThreadRec[]> recs_;
  std::atomic<std::size_t> high_water_{0};  // number of slots ever used
  Padded<std::atomic<std::uint64_t>> total_freed_;
  std::vector<Retired> limbo_;  // NOLINT(psmr-guarded-by-coverage) retiring thread only (or any thread once quiescent)

  // PSMR_MEMORY_DEBUG's single-retirer check: the first retirer's thread
  // token (the same token that owns a slot).
  std::atomic<std::uintptr_t> debug_retirer_{0};
};

}  // namespace psmr
