// Early scheduling — class-routed commands that bypass the DAG
// (arXiv 1805.05152, adapted to this codebase's COS interface).
//
// The paper's §7.3.1 ceiling is the single parallelizer thread: every
// command pays a conflict scan and a graph insertion. Early scheduling
// moves that decision to ordering time: a static *class map* (class_map.h)
// derived from the service's conflict relation routes each command either
// to one worker's private SPSC queue (single-class — the common case) or
// through a synchronization barrier (cross-class / unclassifiable). Only
// barrier commands touch the dependency graph; for everything else the
// insert path is one ring-buffer push.
//
// Implemented as a Cos so the replica's scheduler/worker loops are
// unchanged:
//
//  insert (scheduler thread, delivery order)
//    - single-class c: close any open barrier run, then push c onto its
//      worker's ring. The push IS the schedule: FIFO order per worker
//      preserves delivery order within a class.
//    - sync c: append to the current *run* of consecutive sync commands,
//      inserted into the fallback DAG. A run closes (becomes a *phase*)
//      when a single-class command arrives, the batch ends, or the run
//      hits the DAG capacity; closing pushes one sync token carrying the
//      phase descriptor onto every worker ring.
//
//  get/remove (worker threads)
//    - commands pop in ring order. A sync token is a rendezvous: the
//      worker arrives, waits until all workers arrived (each has drained
//      its queue prefix — this is the barrier that orders the phase after
//      every earlier single-class command), then claims phase commands
//      from the DAG until the phase's claim budget is exhausted, and
//      finally waits until the whole phase has executed before popping on
//      (which orders every later command after the phase).
//
// Phases never overlap: the scheduler waits for the previous phase to
// fully drain before inserting the next run's first command into the DAG,
// so at claim time the DAG holds exactly the current phase's commands.
//
// Threading contract (stricter than the base Cos): exactly `workers`
// consumer threads may call get(), each thread dedicated to this instance
// for its lifetime, and each handle must be remove()d on the thread that
// got it. The replica worker pool and the workload drivers satisfy this.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/padded.h"
#include "common/semaphore.h"
#include "common/spsc_ring.h"
#include "cos/class_map.h"
#include "cos/cos.h"

namespace psmr {

class EarlyCos final : public Cos {
 public:
  // `fallback` executes sync phases (any COS variant); `map` routes
  // commands (nullptr = everything sync, correct but all-barrier);
  // `workers` is the exact number of consumer threads. Build it through
  // make_scheduler (factory.h).
  EarlyCos(std::unique_ptr<Cos> fallback, ClassMapFn map, int workers);
  ~EarlyCos() override;

  bool insert_batch(std::span<const Command> batch) override;
  CosHandle get() override;
  void remove(CosHandle h) override;
  void close() override;

  // Quiescence-only, like the base hook; queue-routed commands have no
  // edges, so this is exactly the fallback DAG's edge set.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> debug_edges() override {
    return dag_->debug_edges();
  }

  std::size_t capacity() const override;
  std::size_t approx_size() const override {
    return queued_.load(std::memory_order_relaxed) + dag_->approx_size();  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  }
  const char* name() const override { return "early-scheduling"; }

  const Cos& fallback() const { return *dag_; }

 private:
  // One synchronization phase = one closed run of consecutive sync
  // commands. Shared by the scheduler and all workers via shared_ptr
  // (tokens in flight keep it alive after the scheduler moves on).
  struct SyncPhase {
    SyncPhase(std::size_t n, std::size_t w) : count(n), workers(w) {}
    const std::size_t count;    // commands in the phase (all in the DAG)
    const std::size_t workers;  // rendezvous population
    std::atomic<std::size_t> arrived{0};
    std::atomic<std::size_t> claimed{0};
    std::atomic<std::size_t> executed{0};
  };

  struct Item {
    enum Kind : std::uint8_t { kCmd, kSync };
    Kind kind = kCmd;
    Command cmd{};
    std::shared_ptr<SyncPhase> phase;  // kSync only
  };

  struct alignas(kCacheLineSize) Worker {
    explicit Worker(std::size_t capacity) : ring(capacity) {}
    // Sized like the fallback DAG (its capacity, rounded up to a power of
    // two): the window of commands the scheduler may run ahead of this
    // worker is the same whichever path a command takes.
    SpscRing<Item> ring;
    Semaphore items;  // one permit per ring item
    // Consumer-thread scratch for the single outstanding handle.
    Command current{};
    CosHandle dag_handle{};
    std::shared_ptr<SyncPhase> phase;  // set while draining a phase
    bool from_dag = false;
  };

  enum class Claim { kGot, kExhausted, kClosed };

  // Registers the calling thread as a consumer on first use.
  Worker& self();

  bool insert_one(const Command& c);
  // Seals the open run into a phase and pushes its tokens. No-op when the
  // run is empty. Returns false iff closed.
  bool close_run();
  // Parks the scheduler until the previous phase fully executed (phases
  // must not overlap in the DAG). Returns false iff closed.
  bool wait_phase_drained();
  bool push_item(Worker& w, const Item& item);
  Claim claim_from_phase(Worker& w, CosHandle* out);

  const std::unique_ptr<Cos> dag_;
  const ClassMapFn map_;
  const std::uint64_t id_;  // process-unique, for consumer registration
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> next_consumer_{0};
  std::atomic<std::size_t> queued_{0};  // ring-resident + executing commands
  std::atomic<bool> closed_{false};

  // Scheduler-thread-only run state.
  std::size_t run_count_ = 0;
  std::shared_ptr<SyncPhase> last_phase_;

  Counter& class_hits_;     // scheduler.class_hits
  Counter& barrier_waits_;  // scheduler.barrier_waits
  Gauge& queue_depth_;      // scheduler.class_queue_depth
};

}  // namespace psmr
