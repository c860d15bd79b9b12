// Rank-checked mutex wrappers enforcing the repo-wide lock hierarchy.
//
// Every mutex in the codebase carries a compile-time *rank*; a thread may
// only acquire a mutex whose rank is strictly greater than the highest rank
// it already holds (equal ranks are allowed only for mutex families that
// opt into hand-over-hand coupling, where list order is the
// intra-rank tiebreak and is validated by TSan's lock-order graph instead).
// A violation means the acquisition could participate in a deadlock cycle,
// and the checked build aborts immediately with both ranks printed — no
// waiting for the four-way timing coincidence an actual deadlock needs.
//
// Three layers, all in this header:
//   - lock_rank::   rank constants (the documented hierarchy, DESIGN.md)
//                   and the thread-local held-rank bookkeeping.
//   - CheckedRankedMutex / PlainRankedMutex
//                   std::mutex wrappers with identical APIs; the checked
//                   one validates every acquire/release against the
//                   thread's held set. `RankedMutex` aliases the checked
//                   wrapper when PSMR_LOCK_RANK_CHECKS is on (default:
//                   non-Release builds) and the plain one otherwise, so
//                   Release binaries pay nothing.
//   - MutexLock / CondVar
//                   scoped lock and condition variable that work with the
//                   wrappers AND carry Clang Thread Safety annotations
//                   (thread_annotations.h). libstdc++'s std::unique_lock /
//                   std::condition_variable are opaque to TSA, so code
//                   that wants static checking uses these instead. CondVar
//                   waits release/reacquire *through* the wrapper, keeping
//                   the rank bookkeeping (and TSA's lock sets) exact
//                   across the wait.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/thread_annotations.h"

// PSMR_LOCK_RANK_CHECKS: 1 = RankedMutex checks ranks at runtime, 0 =
// RankedMutex is a plain std::mutex wrapper. CMake sets it from the
// PSMR_RANK_CHECKS option (AUTO: on except in Release); standalone
// inclusion defaults from NDEBUG.
#if !defined(PSMR_LOCK_RANK_CHECKS)
#if defined(NDEBUG)
#define PSMR_LOCK_RANK_CHECKS 0
#else
#define PSMR_LOCK_RANK_CHECKS 1
#endif
#endif

namespace psmr {
namespace lock_rank {

// The hierarchy, outermost (acquired first) to innermost. Gaps leave room
// for future layers without renumbering. Rationale for each ordering edge
// is in DESIGN.md "Lock hierarchy and concurrency enforcement".
inline constexpr int kSmrClient = 100;       // SmrClient::mu_
inline constexpr int kReplicaClients = 120;  // Replica::clients_mu_
inline constexpr int kBroadcast = 200;       // SequencedBroadcast::mu_
inline constexpr int kTransport = 300;       // TcpTransport/SimNetwork mu_
inline constexpr int kSimLink = 320;         // SimNetwork outgoing links
inline constexpr int kSimInbox = 350;        // SimNetwork endpoint inboxes
inline constexpr int kQueue = 400;           // BlockingQueue::mu_
inline constexpr int kCosMonitor = 500;      // CoarseGrainedCos::mu_
inline constexpr int kCosIndex = 540;        // FineGrainedCos::index_mu_
inline constexpr int kCosNode = 560;         // FineGrainedCos node locks
inline constexpr int kSemaphore = 700;       // Semaphore::mu_ (COS blocking)

// Per-thread multiset of held ranks. Sized for the deepest legal chain
// (client -> broadcast -> transport -> queue is four; hand-over-hand holds
// two same-rank locks); kMaxDistinct is a hard cap, overflow aborts.
struct HeldRanks {
  static constexpr int kMaxDistinct = 16;
  int rank[kMaxDistinct];
  int count[kMaxDistinct];
  int distinct = 0;
};

inline thread_local HeldRanks t_held;

inline int max_held_rank() {
  int max = -1;
  for (int i = 0; i < t_held.distinct; ++i) {
    if (t_held.rank[i] > max) max = t_held.rank[i];
  }
  return max;
}

[[noreturn]] inline void die(const char* what, int acquiring, int held) {
  std::fprintf(stderr,
               "psmr lock-rank violation: %s (acquiring rank %d, highest "
               "held rank %d)\n",
               what, acquiring, held);
  std::fflush(stderr);
  std::abort();
}

// Validates an acquisition *before* blocking on the mutex, so a hierarchy
// violation aborts even when the buggy interleaving would have deadlocked.
inline void check_acquire(int rank, bool allow_same_rank) {
  const int held = max_held_rank();
  if (held > rank) {
    die("rank must exceed every held rank", rank, held);
  }
  if (held == rank && !allow_same_rank) {
    die("same-rank nesting is reserved for coupled (hand-over-hand) locks",
        rank, held);
  }
}

inline void record_acquire(int rank) {
  for (int i = 0; i < t_held.distinct; ++i) {
    if (t_held.rank[i] == rank) {
      ++t_held.count[i];
      return;
    }
  }
  if (t_held.distinct == HeldRanks::kMaxDistinct) {
    die("held-rank table overflow (raise HeldRanks::kMaxDistinct)", rank,
        max_held_rank());
  }
  t_held.rank[t_held.distinct] = rank;
  t_held.count[t_held.distinct] = 1;
  ++t_held.distinct;
}

// Releases may happen in any order (unique_lock::swap during coupling
// releases the *earlier* lock first), so this is multiset removal, not a
// stack pop.
inline void record_release(int rank) {
  for (int i = 0; i < t_held.distinct; ++i) {
    if (t_held.rank[i] != rank) continue;
    if (--t_held.count[i] == 0) {
      --t_held.distinct;
      t_held.rank[i] = t_held.rank[t_held.distinct];
      t_held.count[i] = t_held.count[t_held.distinct];
    }
    return;
  }
  die("releasing a rank this thread does not hold", rank, max_held_rank());
}

}  // namespace lock_rank

// Always-checking wrapper. Tests instantiate this directly so the death
// tests exercise real checking logic in every build type; production code
// goes through the RankedMutex alias below.
template <int Rank, bool AllowSameRank = false>
class PSMR_CAPABILITY("mutex") CheckedRankedMutex {
 public:
  static constexpr int kRank = Rank;

  CheckedRankedMutex() = default;
  CheckedRankedMutex(const CheckedRankedMutex&) = delete;
  CheckedRankedMutex& operator=(const CheckedRankedMutex&) = delete;

  void lock() PSMR_ACQUIRE() {
    lock_rank::check_acquire(Rank, AllowSameRank);
    mu_.lock();
    lock_rank::record_acquire(Rank);
  }

  bool try_lock() PSMR_TRY_ACQUIRE(true) {
    lock_rank::check_acquire(Rank, AllowSameRank);
    if (!mu_.try_lock()) return false;
    lock_rank::record_acquire(Rank);
    return true;
  }

  void unlock() PSMR_RELEASE() {
    mu_.unlock();
    lock_rank::record_release(Rank);
  }

  // The wrapped mutex, for CondVar's native-wait path. Callers must hold
  // the lock (they pass the wrapper itself to CondVar::wait).
  std::mutex& underlying() { return mu_; }

 private:
  std::mutex mu_;
};

// Zero-overhead twin: same API and TSA annotations, no rank bookkeeping.
template <int Rank, bool AllowSameRank = false>
class PSMR_CAPABILITY("mutex") PlainRankedMutex {
 public:
  static constexpr int kRank = Rank;

  PlainRankedMutex() = default;
  PlainRankedMutex(const PlainRankedMutex&) = delete;
  PlainRankedMutex& operator=(const PlainRankedMutex&) = delete;

  void lock() PSMR_ACQUIRE() { mu_.lock(); }
  bool try_lock() PSMR_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void unlock() PSMR_RELEASE() { mu_.unlock(); }
  std::mutex& underlying() { return mu_; }

 private:
  std::mutex mu_;
};

static_assert(sizeof(PlainRankedMutex<0>) == sizeof(std::mutex),
              "the unchecked wrapper must be layout-identical to std::mutex");

#if PSMR_LOCK_RANK_CHECKS
template <int Rank, bool AllowSameRank = false>
using RankedMutex = CheckedRankedMutex<Rank, AllowSameRank>;
#else
template <int Rank, bool AllowSameRank = false>
using RankedMutex = PlainRankedMutex<Rank, AllowSameRank>;
#endif

// Scoped lock over any of the wrappers (or std::mutex), visible to TSA.
// Mid-scope unlock()/lock() is allowed — the destructor only releases when
// the lock is held, and TSA tracks the state through the annotations.
template <typename MutexT>
class PSMR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(MutexT& mu) PSMR_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }

  ~MutexLock() PSMR_RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() PSMR_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

  void unlock() PSMR_RELEASE() {
    mu_.unlock();
    held_ = false;
  }

 private:
  MutexT& mu_;
  bool held_;
};

// Condition variable for rank-checked mutexes. Predicate waits are
// deliberately not offered: callers write explicit
// `while (!pred) cv.wait(mu);` loops, which TSA can see through (it cannot
// analyze predicate lambdas).
//
// Checked builds: condition_variable_any over a facade that forwards to
// the wrapper's lock()/unlock(), so the wait updates rank bookkeeping
// exactly like a hand-written release/reacquire would.
//
// Unchecked builds: the native std::condition_variable over the wrapper's
// underlying std::mutex — condition_variable_any carries an extra internal
// mutex on every wait/notify, which is measurable on the monitor hot paths
// (coarse-grained COS get(), semaphore, blocking queue), and the Release
// contract is zero overhead versus unwrapped code.
#if PSMR_LOCK_RANK_CHECKS
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  template <typename MutexT>
  void wait(MutexT& mu) PSMR_REQUIRES(mu) {
    LockFacade<MutexT> facade{mu};
    cv_.wait(facade);
  }

  template <typename MutexT, typename Rep, typename Period>
  std::cv_status wait_for(MutexT& mu,
                          const std::chrono::duration<Rep, Period>& dur)
      PSMR_REQUIRES(mu) {
    LockFacade<MutexT> facade{mu};
    return cv_.wait_for(facade, dur);
  }

  template <typename MutexT, typename Clock, typename Duration>
  std::cv_status wait_until(
      MutexT& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      PSMR_REQUIRES(mu) {
    LockFacade<MutexT> facade{mu};
    return cv_.wait_until(facade, deadline);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  // BasicLockable facade handed to condition_variable_any. The unlock/lock
  // pair happens inside cv_.wait, invisible to TSA; the enclosing wait()
  // holds the capability on entry and exit, which is what REQUIRES states.
  template <typename MutexT>
  struct LockFacade {
    MutexT& mu;
    void lock() PSMR_NO_THREAD_SAFETY_ANALYSIS { mu.lock(); }
    void unlock() PSMR_NO_THREAD_SAFETY_ANALYSIS { mu.unlock(); }
  };

  std::condition_variable_any cv_;
};
#else
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Each wait adopts the caller-held lock for the duration of the native
  // wait and releases ownership back on return, so the caller's scoped
  // lock still unlocks exactly once.
  template <typename MutexT>
  void wait(MutexT& mu) PSMR_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.underlying(), std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();
  }

  template <typename MutexT, typename Rep, typename Period>
  std::cv_status wait_for(MutexT& mu,
                          const std::chrono::duration<Rep, Period>& dur)
      PSMR_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.underlying(), std::adopt_lock);
    const std::cv_status status = cv_.wait_for(adopted, dur);
    adopted.release();
    return status;
  }

  template <typename MutexT, typename Clock, typename Duration>
  std::cv_status wait_until(
      MutexT& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      PSMR_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.underlying(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(adopted, deadline);
    adopted.release();
    return status;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};
#endif  // PSMR_LOCK_RANK_CHECKS

}  // namespace psmr
