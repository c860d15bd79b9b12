// Unbounded MPMC blocking queue with close() semantics.
//
// Used as the inbox of TcpTransport's dispatcher and as the hand-off
// between the atomic-broadcast delivery path and the replica scheduler.
//
// Locking: TcpTransport push()es while holding its own mutex, so mu_ ranks
// below the transport layer and above the COS locks the scheduler takes
// after popping (DESIGN.md "Lock hierarchy").
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/ranked_mutex.h"
#include "common/thread_annotations.h"

namespace psmr {

template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  // Returns false if the queue is closed (the item is dropped).
  bool push(T item) {
    {
      MutexLock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    pop_wakeup_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) pop_wakeup_.wait(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  std::optional<T> try_pop() {
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Closing wakes all blocked consumers; items already queued can still be
  // popped ("close and drain").
  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    pop_wakeup_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable RankedMutex<lock_rank::kQueue> mu_;
  CondVar pop_wakeup_;
  std::deque<T> items_ PSMR_GUARDED_BY(mu_);
  bool closed_ PSMR_GUARDED_BY(mu_) = false;
};

}  // namespace psmr
