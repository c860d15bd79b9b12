#include "cos/early_sched.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "cos/cos_metrics.h"

namespace psmr {

namespace {
std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;  // NOLINT(psmr-relaxed-order-audit) monotonic id; uniqueness from RMW
}
}  // namespace

EarlyCos::EarlyCos(std::unique_ptr<Cos> fallback, ClassMapFn map, int workers)
    : dag_(std::move(fallback)),
      map_(map),
      id_(next_instance_id()),
      class_hits_(MetricsRegistry::global().counter("scheduler.class_hits")),
      barrier_waits_(
          MetricsRegistry::global().counter("scheduler.barrier_waits")),
      queue_depth_(
          MetricsRegistry::global().gauge("scheduler.class_queue_depth")) {
  const std::size_t n = workers > 0 ? static_cast<std::size_t>(workers) : 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(dag_->capacity()));
  }
}

EarlyCos::~EarlyCos() { close(); }

EarlyCos::Worker& EarlyCos::self() {
  // Consumer registration: first get() on a thread claims the next worker
  // slot. The instance id (never reused, unlike addresses) keys the cache
  // so threads of a later EarlyCos re-register.
  thread_local std::uint64_t tls_instance = 0;
  thread_local std::size_t tls_index = 0;
  if (tls_instance != id_) {
    tls_index = next_consumer_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) round-robin assignment; any order acceptable
    tls_instance = id_;
    if (tls_index >= workers_.size()) {
      std::fprintf(stderr,
                   "EarlyCos: %zu consumer threads for %zu workers — the "
                   "threading contract requires exactly one thread per "
                   "worker queue\n",
                   tls_index + 1, workers_.size());
      std::abort();
    }
  }
  return *workers_[tls_index];
}

bool EarlyCos::push_item(Worker& w, const Item& item) {
  if (!w.ring.try_push(item)) {
    auto& m = cos_metrics();
    m.insert_blocks.inc();
    const std::uint64_t t0 = metrics_now_ns();
    while (!w.ring.try_push(item)) {
      if (closed_.load(std::memory_order_relaxed)) return false;  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      std::this_thread::yield();
    }
    m.insert_block_ns.inc(metrics_now_ns() - t0);
  }
  w.items.release();
  return true;
}

bool EarlyCos::wait_phase_drained() {
  const std::shared_ptr<SyncPhase> phase = last_phase_;
  if (phase == nullptr) return true;
  if (phase->executed.load(std::memory_order_acquire) < phase->count) {
    auto& m = cos_metrics();
    m.insert_blocks.inc();
    const std::uint64_t t0 = metrics_now_ns();
    while (phase->executed.load(std::memory_order_acquire) < phase->count) {
      if (closed_.load(std::memory_order_relaxed)) return false;  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      std::this_thread::yield();
    }
    m.insert_block_ns.inc(metrics_now_ns() - t0);
  }
  last_phase_.reset();
  return true;
}

bool EarlyCos::close_run() {
  if (run_count_ == 0) return true;
  auto phase =
      std::make_shared<SyncPhase>(run_count_, workers_.size());
  run_count_ = 0;
  Item token;
  token.kind = Item::kSync;
  token.phase = phase;
  for (auto& w : workers_) {
    if (!push_item(*w, token)) return false;
  }
  last_phase_ = std::move(phase);
  return true;
}

bool EarlyCos::insert_one(const Command& c) {
  const ClassRoute route =
      map_ != nullptr
          ? map_(c, static_cast<std::uint32_t>(workers_.size()))
          : ClassRoute{};
  if (route.kind == ClassRoute::kWorker) {
    // The open run must execute before this command (it was delivered
    // first and may conflict); sealing it puts its tokens ahead of us in
    // every ring.
    if (run_count_ > 0 && !close_run()) return false;
    Worker& w = *workers_[route.worker % workers_.size()];
    Item item;
    item.cmd = c;
    if (!push_item(w, item)) return false;
    class_hits_.inc();
    queue_depth_.add(1);
    queued_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
    auto& m = cos_metrics();
    m.inserts.inc();
    m.ready_enq.inc();  // queue-routed commands are born dependency-free
    return true;
  }
  // Sync command: goes into the fallback DAG as part of the current run.
  // Before the run's first insert, drain the previous phase so the DAG
  // only ever holds one phase's commands (see header).
  if (run_count_ == 0 && !wait_phase_drained()) return false;
  if (!dag_->insert(c)) return false;
  ++run_count_;
  // Seal before the DAG fills: the next insert would park on `space` with
  // no tokens out, and nobody could drain it.
  if (run_count_ >= dag_->capacity()) return close_run();
  return true;
}

bool EarlyCos::insert_batch(std::span<const Command> batch) {
  for (const Command& c : batch) {
    if (!insert_one(c)) return false;
  }
  return close_run();
}

EarlyCos::Claim EarlyCos::claim_from_phase(Worker& w, CosHandle* out) {
  SyncPhase& p = *w.phase;
  if (p.claimed.fetch_add(1, std::memory_order_relaxed) < p.count) {  // NOLINT(psmr-relaxed-order-audit) atomic ticket; RMW uniqueness is all that matters
    const CosHandle h = dag_->get();
    if (!h) return Claim::kClosed;
    w.dag_handle = h;
    w.from_dag = true;
    *out = CosHandle{h.cmd, &w};
    return Claim::kGot;
  }
  // Claim budget exhausted: wait out the phase so everything delivered
  // after it observes its effects (and pops strictly after it).
  while (p.executed.load(std::memory_order_acquire) < p.count) {
    if (closed_.load(std::memory_order_relaxed)) return Claim::kClosed;  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
    std::this_thread::yield();
  }
  w.phase.reset();
  return Claim::kExhausted;
}

CosHandle EarlyCos::get() {
  Worker& w = self();
  while (true) {
    if (w.phase != nullptr) {
      CosHandle h;
      switch (claim_from_phase(w, &h)) {
        case Claim::kGot:
          return h;
        case Claim::kClosed:
          return {};
        case Claim::kExhausted:
          break;  // phase done; fall through to the ring
      }
    }
    if (!w.items.acquire()) return {};  // closed
    auto popped = w.ring.try_pop();
    // One permit per pushed item and a single consumer: never empty here.
    Item item = std::move(*popped);
    if (item.kind == Item::kCmd) {
      queue_depth_.sub(1);
      cos_metrics().gets.inc();
      w.current = item.cmd;
      w.from_dag = false;
      return CosHandle{&w.current, &w};
    }
    // Sync token: rendezvous. Every worker reaching this point has drained
    // its ring prefix, so once all have arrived the phase is ordered after
    // every single-class command delivered before it.
    barrier_waits_.inc();
    SyncPhase& p = *item.phase;
    p.arrived.fetch_add(1, std::memory_order_acq_rel);
    while (p.arrived.load(std::memory_order_acquire) < p.workers) {
      if (closed_.load(std::memory_order_relaxed)) return {};  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
      std::this_thread::yield();
    }
    w.phase = std::move(item.phase);
  }
}

void EarlyCos::remove(CosHandle h) {
  Worker& w = *static_cast<Worker*>(h.node);
  if (w.from_dag) {
    // DAG removal first: the scheduler's drain-wait takes executed==count
    // to mean the phase left the DAG.
    dag_->remove(w.dag_handle);
    w.dag_handle = {};
    w.phase->executed.fetch_add(1, std::memory_order_acq_rel);
  } else {
    queued_.fetch_sub(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
    cos_metrics().removes.inc();
  }
}

void EarlyCos::close() {
  closed_.store(true, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
  dag_->close();
  for (auto& w : workers_) w->items.close();
}

std::size_t EarlyCos::capacity() const {
  std::size_t rings = 0;
  for (const auto& w : workers_) rings += w->ring.capacity();
  return rings + dag_->capacity();
}

}  // namespace psmr
