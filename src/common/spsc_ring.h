// Bounded single-producer/single-consumer lock-free ring buffer.
//
// Utility for single-producer/single-consumer hand-offs (e.g., a socket
// reader feeding a replica scheduler when the simulated network is replaced
// by a real transport). The in-process replica currently uses the blocking
// queue for its delivery path because it also needs close() semantics and
// unbounded control batches.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "common/debug_poison.h"
#include "common/padded.h"

// PSMR_SPSC_CHECKS: 1 = try_push/try_pop verify the single-producer/
// single-consumer contract at runtime (sticky thread identity per role,
// abort on violation), 0 = contract is the caller's problem, zero overhead.
// Defaults on whenever memory debugging is on or the build is a debug build;
// tests can force it per-TU before including this header (the header is
// self-contained, so a forced TU never ODR-clashes with library code).
#if !defined(PSMR_SPSC_CHECKS)
#if PSMR_MEMORY_DEBUG
#define PSMR_SPSC_CHECKS 1
#elif defined(NDEBUG)
#define PSMR_SPSC_CHECKS 0
#else
#define PSMR_SPSC_CHECKS 1
#endif
#endif

namespace psmr {

#if PSMR_SPSC_CHECKS
namespace spsc_detail {
// Thread identity as the address of a thread_local anchor — unique per live
// thread, comparable without <thread> (same scheme as the EBR
// single-remover check).
inline std::uintptr_t thread_identity() {
  thread_local char anchor;
  return reinterpret_cast<std::uintptr_t>(&anchor);
}
}  // namespace spsc_detail
#endif

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two.
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. Returns false when full.
  bool try_push(T item) {
    check_role(producer_id_, "producer (try_push)");
    const std::size_t head = head_.value.load(std::memory_order_relaxed);
    const std::size_t tail = tail_cache_;
    if (head - tail > mask_) {
      tail_cache_ = tail_.value.load(std::memory_order_acquire);
      if (head - tail_cache_ > mask_) return false;
    }
    slots_[head & mask_] = std::move(item);
    head_.value.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns nullopt when empty.
  std::optional<T> try_pop() {
    check_role(consumer_id_, "consumer (try_pop)");
    const std::size_t tail = tail_.value.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.value.load(std::memory_order_acquire);
      if (tail == head_cache_) return std::nullopt;
    }
    T item = std::move(slots_[tail & mask_]);
    tail_.value.store(tail + 1, std::memory_order_release);
    return item;
  }

  std::size_t capacity() const { return mask_ + 1; }

  // Checked builds pin each role (producer / consumer) to the first thread
  // that exercises it and abort if a second thread ever takes that role.
  // A deliberate, externally synchronized ownership hand-off (producer
  // thread retires, a new one takes over) must call this at the hand-off
  // point; it is NOT a license for concurrent access. No-op when checks
  // are compiled out.
  void debug_reset_roles() {
#if PSMR_SPSC_CHECKS
    producer_id_.store(0, std::memory_order_relaxed);
    consumer_id_.store(0, std::memory_order_relaxed);
#endif
  }

  // Approximate; exact only when quiesced.
  std::size_t size() const {
    return head_.value.load(std::memory_order_acquire) -
           tail_.value.load(std::memory_order_acquire);
  }

 private:
#if PSMR_SPSC_CHECKS
  // Sticky role identity: first CAS claims the role for the calling thread,
  // any later call from a different thread is a contract violation.
  void check_role(std::atomic<std::uintptr_t>& claimed, const char* role) {
    const std::uintptr_t tid = spsc_detail::thread_identity();
    std::uintptr_t expected = 0;
    if (!claimed.compare_exchange_strong(expected, tid,
                                         std::memory_order_relaxed) &&
        expected != tid) {
      std::fprintf(stderr,
                   "SpscRing: single-%s contract violated — second thread "
                   "in role (first=%#zx this=%#zx)\n",
                   role, static_cast<std::size_t>(expected),
                   static_cast<std::size_t>(tid));
      std::abort();
    }
  }
  std::atomic<std::uintptr_t> producer_id_{0};
  std::atomic<std::uintptr_t> consumer_id_{0};
#else
  void check_role(int /*unused*/, const char* /*unused*/) {}
  // Placeholders so the call sites compile identically in both modes.
  static constexpr int producer_id_ = 0;
  static constexpr int consumer_id_ = 0;
#endif

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  Padded<std::atomic<std::size_t>> head_{};  // producer writes
  Padded<std::atomic<std::size_t>> tail_{};  // consumer writes
  // Producer-local / consumer-local cached views of the opposite index.
  alignas(kCacheLineSize) std::size_t tail_cache_ = 0;
  alignas(kCacheLineSize) std::size_t head_cache_ = 0;
};

}  // namespace psmr
