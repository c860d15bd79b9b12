#include "memory/ebr.h"

#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace psmr {
namespace {

std::atomic<std::uint64_t> g_next_domain_id{1};

// Identity of the calling thread: the address of a thread_local anchor,
// unique among live threads (a later thread may reuse a dead one's, and
// with it the dead thread's unpinned slot).
std::uintptr_t this_thread_token() {
  static thread_local char t_anchor;
  return reinterpret_cast<std::uintptr_t>(&t_anchor);
}

// Thread-local registration cache, direct-mapped by domain id, so a hit is
// one compare however many domains the thread has pinned. Ids start at 1
// and are never reused: an empty entry or one left behind by a destroyed
// domain never matches. A domain whose entry was evicted finds this
// thread's slot again by owner token (see rec_for_current_thread).
struct CacheEntry {
  std::uint64_t domain_id;
  void* rec;
};
constexpr std::size_t kCacheEntries = 16;
thread_local std::array<CacheEntry, kCacheEntries> t_cache{};

}  // namespace

EbrDomain::EbrDomain()
    : id_(g_next_domain_id.fetch_add(1, std::memory_order_relaxed)),
      recs_(std::make_unique<ThreadRec[]>(kMaxThreads)) {
  global_epoch_.value.store(1, std::memory_order_relaxed);
  total_freed_.value.store(0, std::memory_order_relaxed);
}

EbrDomain::~EbrDomain() { drain_all_unsafe(); }

EbrDomain::ThreadRec* EbrDomain::rec_for_current_thread() {
  CacheEntry& entry = t_cache[id_ % kCacheEntries];
  if (entry.domain_id == id_) return static_cast<ThreadRec*>(entry.rec);
  // Miss: reuse this thread's slot if it registered before and its cache
  // entry was evicted, else claim a fresh one. Only this thread can own a
  // slot under its token, so the scan cannot race with itself.
  const std::uintptr_t me = this_thread_token();
  ThreadRec* rec = nullptr;
  const std::size_t hw = high_water_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < hw && rec == nullptr; ++i) {
    if (recs_[i].owner.load(std::memory_order_acquire) == me) rec = &recs_[i];
  }
  for (std::size_t i = 0; i < kMaxThreads && rec == nullptr; ++i) {
    std::uintptr_t expected = 0;
    if (recs_[i].owner.compare_exchange_strong(expected, me,
                                               std::memory_order_acq_rel)) {
      std::size_t hw_now = high_water_.load(std::memory_order_relaxed);
      while (hw_now < i + 1 && !high_water_.compare_exchange_weak(
                                   hw_now, i + 1, std::memory_order_acq_rel)) {
      }
      rec = &recs_[i];
    }
  }
  assert(rec != nullptr && "EbrDomain: more than kMaxThreads registered");
  entry = {id_, rec};
  return rec;
}

EbrDomain::Guard EbrDomain::pin() {
  ThreadRec* rec = rec_for_current_thread();
  std::uint64_t e;
  // Publish our pinned epoch and re-validate: if the global epoch moved
  // between the read and the store, re-publish. This guarantees that once
  // try_advance() observes every slot at epoch E (or idle), no thread is
  // still pinned below E.
  do {
    e = global_epoch_.value.load(std::memory_order_seq_cst);
    rec->epoch.value.store(e, std::memory_order_seq_cst);
  } while (global_epoch_.value.load(std::memory_order_seq_cst) != e);
  return Guard(&rec->epoch.value);
}

void EbrDomain::retire_raw(void* ptr, void (*deleter)(void*)) {
#if PSMR_MEMORY_DEBUG
  // Sticky first-retirer identity: the first retire claims the domain, any
  // retire from a different thread afterwards is an invariant violation.
  const std::uintptr_t tid = this_thread_token();
  std::uintptr_t expected = 0;
  if (!debug_retirer_.compare_exchange_strong(expected, tid,
                                              std::memory_order_relaxed) &&
      expected != tid) {
    std::fprintf(stderr,
                 "EbrDomain: single-remover invariant violated — retire "
                 "from a second thread (first=%#zx this=%#zx)\n",
                 static_cast<std::size_t>(expected),
                 static_cast<std::size_t>(tid));
    std::abort();
  }
#endif
  limbo_.push_back(
      {ptr, deleter, global_epoch_.value.load(std::memory_order_seq_cst)});
  // Amortize advancement attempts.
  if (limbo_.size() % 64 == 0) {
    try_advance();
    reclaim();
  }
}

bool EbrDomain::try_advance() {
  const std::uint64_t e = global_epoch_.value.load(std::memory_order_seq_cst);
  const std::size_t hw = high_water_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < hw; ++i) {
    const std::uint64_t v = recs_[i].epoch.value.load(std::memory_order_seq_cst);
    if (v != kIdle && v < e) return false;  // a thread is pinned behind
  }
  std::uint64_t expected = e;
  global_epoch_.value.compare_exchange_strong(expected, e + 1,
                                              std::memory_order_seq_cst);
  return true;
}

std::size_t EbrDomain::reclaim() {
  const std::uint64_t e = global_epoch_.value.load(std::memory_order_seq_cst);
  std::size_t freed = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < limbo_.size(); ++i) {
    // A node retired in epoch r was unreachable before any thread could pin
    // epoch r+1; once the global epoch is r+2, every thread pinned at r or
    // earlier has unpinned, so the node is free to go.
    if (limbo_[i].epoch + 2 <= e) {
      limbo_[i].deleter(limbo_[i].ptr);
      ++freed;
    } else {
      limbo_[keep++] = limbo_[i];
    }
  }
  limbo_.resize(keep);
  total_freed_.value.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

std::size_t EbrDomain::flush() {
  try_advance();
  try_advance();
  return reclaim();
}

void EbrDomain::drain_all_unsafe() {
  for (const Retired& retired : limbo_) retired.deleter(retired.ptr);
  total_freed_.value.fetch_add(limbo_.size(), std::memory_order_relaxed);
  limbo_.clear();
}

}  // namespace psmr
