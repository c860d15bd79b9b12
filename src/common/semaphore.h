// Counting semaphore with close() semantics.
//
// The paper's blocking layer (Alg. 5) uses two counting semaphores, `space`
// and `ready`, to park the scheduler when the dependency graph is full and to
// park worker threads when no command is ready. A plain counting semaphore
// has no way to wake parked threads at shutdown, so this one adds close():
// after close(), every pending and future acquire() returns false instead of
// blocking, which lets COS implementations drain their worker pools cleanly.
//
// Fast path: the permit count and the closed flag share one atomic word
// (`state_ = permits << 1 | closed`), so an acquire that finds its permits,
// and a release with nobody parked, is a single atomic read-modify-write.
// close() sets the flag bit in that same word, which keeps it immediate: no
// acquire can take a permit once the bit is set.
//
// Slow path: a caller that finds too few permits parks on cv_ under mu_.
// Wake-ups cannot be lost. The parker bumps `waiters_` and then re-checks
// `state_` under mu_ before waiting; the releaser adds its permits to
// `state_` and then reads `waiters_`. All four accesses are seq_cst, so at
// least one side sees the other: either the parker's re-check finds the
// permits, or the releaser sees a waiter and takes mu_ — which the parker
// holds from its re-check until it is inside cv_.wait — before notifying.
//
// Locking: mu_ is a leaf in the COS layer — release() is called from deep
// inside the variants' remove/insert paths, so its rank sits below every
// graph lock (DESIGN.md "Lock hierarchy"). It is taken only on the park/wake
// path.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/metrics.h"
#include "common/ranked_mutex.h"
#include "common/thread_annotations.h"

namespace psmr {

class Semaphore {
 public:
  explicit Semaphore(std::ptrdiff_t initial = 0) : state_(initial * kPermit) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  // Optional block accounting: when set, each acquire() that actually parks
  // bumps `blocks` once and adds the time parked to `blocked_ns`. Must be
  // called before the semaphore is shared between threads (COS variants do
  // it in their constructors); the fast non-blocking path stays untouched.
  void instrument(Counter* blocks, Counter* blocked_ns) {
    blocks_metric_ = blocks;
    blocked_ns_metric_ = blocked_ns;
  }

  // Blocks until `n` permits are available at once, or the semaphore is
  // closed. Returns true if all `n` permits were consumed, false if closed
  // (close is immediate: remaining permits are not drained). Never holds a
  // partial grant, so multi-permit waiters cannot deadlock each other; `n`
  // must not exceed the most permits the semaphore can ever hold.
  bool acquire(std::ptrdiff_t n = 1) {
    assert(n >= 1);
    std::ptrdiff_t s = state_.load(std::memory_order_seq_cst);
    if (take(s, n)) return true;
    if ((s & kClosed) != 0) return false;
    return acquire_slow(n);
  }

  // Non-blocking acquire. Returns true iff a permit was consumed.
  bool try_acquire() {
    std::ptrdiff_t s = state_.load(std::memory_order_seq_cst);
    return take(s, 1);
  }

  void release(std::ptrdiff_t n = 1) {
    if (n <= 0) return;
    state_.fetch_add(n * kPermit, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    bool wake_all = n > 1;
    {
      // Taking mu_ orders this wake after any parker's re-check (see the
      // header comment); a multi-permit waiter may need this release even
      // when n == 1, and notify_one could pick a waiter it does not help.
      MutexLock lock(mu_);
      wake_all = wake_all || multi_waiters_ > 0;
    }
    if (wake_all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  // Wakes all waiters; subsequent acquire() calls return false even with
  // permits left. Idempotent.
  void close() {
    state_.fetch_or(kClosed, std::memory_order_seq_cst);
    { MutexLock lock(mu_); }  // a parker between re-check and wait finishes
    cv_.notify_all();
  }

  bool closed() const {
    return (state_.load(std::memory_order_seq_cst) & kClosed) != 0;
  }

  std::ptrdiff_t available() const {
    return state_.load(std::memory_order_seq_cst) / kPermit;
  }

 private:
  static constexpr std::ptrdiff_t kClosed = 1;
  static constexpr std::ptrdiff_t kPermit = 2;

  // Takes `n` permits from `s` (refreshed on CAS failure) unless the
  // semaphore is closed or holds fewer than `n`.
  bool take(std::ptrdiff_t& s, std::ptrdiff_t n) {
    while ((s & kClosed) == 0 && s / kPermit >= n) {
      if (state_.compare_exchange_weak(s, s - n * kPermit,
                                       std::memory_order_seq_cst)) {
        return true;
      }
    }
    return false;
  }

  bool acquire_slow(std::ptrdiff_t n) {
    MutexLock lock(mu_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (n > 1) ++multi_waiters_;
    std::ptrdiff_t s = state_.load(std::memory_order_seq_cst);
    bool parked = false;
    std::uint64_t t0 = 0;
    while (!take(s, n) && (s & kClosed) == 0) {
      if (!parked && blocks_metric_ != nullptr) {
        blocks_metric_->inc();
        t0 = metrics_now_ns();
      }
      parked = true;
      cv_.wait(mu_);
      s = state_.load(std::memory_order_seq_cst);
    }
    if (n > 1) --multi_waiters_;
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    if (parked && blocks_metric_ != nullptr) {
      blocked_ns_metric_->inc(metrics_now_ns() - t0);
    }
    return (s & kClosed) == 0;
  }

  // permits << 1 | closed; permits never go negative.
  std::atomic<std::ptrdiff_t> state_;
  // Callers inside acquire_slow (parked or about to re-check).
  std::atomic<int> waiters_{0};
  RankedMutex<lock_rank::kSemaphore> mu_;
  CondVar cv_;
  // Parked callers waiting for more than one permit; while any exist every
  // release wakes all waiters.
  int multi_waiters_ PSMR_GUARDED_BY(mu_) = 0;
  // Set once before sharing (see instrument()); read on the park path.
  Counter* blocks_metric_ = nullptr;  // NOLINT(psmr-guarded-by-coverage) set once via instrument() before sharing
  Counter* blocked_ns_metric_ = nullptr;  // NOLINT(psmr-guarded-by-coverage) set once via instrument() before sharing
};

}  // namespace psmr
