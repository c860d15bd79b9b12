#include "cos/parallel_insert.h"

#include <algorithm>
#include <cassert>

#include "common/stopwatch.h"

namespace psmr {
namespace {

std::size_t pow2_at_least(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

ParallelInsertCos::ParallelInsertCos(std::size_t capacity, ConflictFn conflict,
                                     std::size_t shards,
                                     std::size_t inserter_threads)
    : extract_(conflict_key_extractor(conflict)),
      slots_(std::max<std::size_t>(capacity, 1)),
      m_(cos_metrics()),
      pm_(parallel_insert_metrics()) {
  assert(extract_ != nullptr &&
         "ParallelInsertCos requires a per-key-decomposable relation; the "
         "factory falls back to a serial DAG for opaque ones");
  const std::size_t nshards = pow2_at_least(std::max<std::size_t>(shards, 1));
  const std::size_t nins =
      std::clamp<std::size_t>(inserter_threads, 1, nshards);
  shards_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  free_list_.reserve(slots_.size());
  for (std::size_t i = slots_.size(); i-- > 0;) {
    free_list_.push_back(static_cast<std::uint32_t>(i));
  }
  merge_cursors_.resize(nshards);
  space_.release(static_cast<std::ptrdiff_t>(slots_.size()));
  space_.instrument(&m_.insert_blocks, &m_.insert_block_ns);
  ready_sem_.instrument(&m_.get_blocks, &m_.get_block_ns);
  pm_.shards.set(static_cast<std::int64_t>(nshards));
  inserters_.reserve(nins);
  for (std::size_t t = 0; t < nins; ++t) {
    inserters_.push_back(std::make_unique<Inserter>());
  }
  for (std::size_t t = 0; t < nins; ++t) {
    inserters_[t]->thread = std::thread([this, t] { inserter_loop(t); });
  }
}

ParallelInsertCos::~ParallelInsertCos() {
  close();
  for (auto& ins : inserters_) {
    if (ins->thread.joinable()) ins->thread.join();
  }
}

void ParallelInsertCos::close() {
  closed_.store(true, std::memory_order_release);
  space_.close();
  ready_sem_.close();
  done_.close();
  for (auto& ins : inserters_) ins->job.close();
}

bool ParallelInsertCos::insert(const Command& c) {
  return insert_batch(std::span<const Command>(&c, 1));
}

bool ParallelInsertCos::insert_batch(std::span<const Command> batch) {
  // Chunk to the window capacity so admission can always complete: a chunk
  // never needs more permits than the window can hold at once.
  while (!batch.empty()) {
    const std::size_t n = std::min(batch.size(), slots_.size());
    if (!insert_chunk(batch.first(n))) return false;
    batch = batch.subspan(n);
  }
  return true;
}

bool ParallelInsertCos::insert_chunk(std::span<const Command> chunk) {
  // 1. Admission: the chunk's window permits, taken in one acquire.
  if (!space_.acquire(static_cast<std::ptrdiff_t>(chunk.size()))) {
    return false;  // closed
  }
  // 2. Allocate and stamp arena slots. A permit guarantees a free slot:
  //    remove() returns the slot to the free list before releasing space_.
  job_slots_.clear();
  {
    MutexLock lock(graph_mu_);
    for (const Command& c : chunk) {
      assert(!free_list_.empty());
      const std::uint32_t idx = free_list_.back();
      free_list_.pop_back();
      Slot& slot = slots_[idx];
      slot.cmd = c;
      slot.seq = ++seq_counter_;
      slot.merge_stamp = 0;
      slot.pending_in = 0;
      slot.live = true;
      slot.out.clear();
      job_slots_.push_back(idx);
    }
  }
  // 3. Bucket conflict keys by shard. A command's keys are sorted with <= 4
  //    entries; adjacent duplicates are dropped here so the per-shard key
  //    subsequences are strictly ascending. Empty-keyset commands land in
  //    no bucket — they conflict with nothing under a keyed relation.
  for (auto& sh : shards_) sh->bucket.clear();
  for (std::uint32_t i = 0; i < chunk.size(); ++i) {
    const Command& c = chunk[i];
    debug_assert_sorted_keys(c);
    const KeyedAccess access = extract_(c);
    std::array<std::pair<std::size_t, std::uint8_t>, 4> per{};
    int nper = 0;
    for (std::uint8_t k = 0; k < access.keys.size(); ++k) {
      if (k > 0 && access.keys[k] == access.keys[k - 1]) continue;
      const std::size_t s = shard_of(access.keys[k]);
      bool found = false;
      for (int j = 0; j < nper; ++j) {
        if (per[j].first == s) {
          per[j].second |= static_cast<std::uint8_t>(1u << k);
          found = true;
          break;
        }
      }
      if (!found) per[nper++] = {s, static_cast<std::uint8_t>(1u << k)};
    }
    for (int j = 0; j < nper; ++j) {
      shards_[per[j].first]->bucket.push_back(BucketItem{i, per[j].second});
    }
  }
  // 4. Publish the probe job to the inserter pool and wait for the last
  //    inserter. The job/done semaphore pair carries the happens-before
  //    edges for the phase-confined buffers.
  job_cmds_ = chunk.data();
  job_count_ = chunk.size();
  probes_pending_.store(static_cast<int>(inserters_.size()),
                        std::memory_order_release);
  const std::uint64_t t0 = kMetricsEnabled ? now_ns() : 0;
  for (auto& ins : inserters_) ins->job.release();
  if (!done_.acquire()) return false;  // closed mid-chunk
  if constexpr (kMetricsEnabled) pm_.edge_ns.inc(now_ns() - t0);
  // 5. Deterministic merge, delivery order.
  merge_chunk(chunk);
  return !closed_.load(std::memory_order_acquire);
}

void ParallelInsertCos::inserter_loop(std::size_t tid) {
  Inserter& self = *inserters_[tid];
  while (self.job.acquire()) {
    probe_shards(tid);
    if (probes_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_.release();
    }
  }
}

void ParallelInsertCos::probe_shards(std::size_t tid) {
  // Static shard ownership: inserter t owns shards s ≡ t (mod T), for the
  // whole structure lifetime. Within a shard, commands are probed and then
  // registered in delivery order, so earlier in-batch commands are visible
  // to later ones exactly as under a serial insert — and the candidate
  // stream per shard is independent of the thread count.
  const std::span<const Command> batch(job_cmds_, job_count_);
  for (std::size_t s = tid; s < shards_.size(); s += inserters_.size()) {
    Shard& sh = *shards_[s];
    sh.cands.clear();
    sh.ranges.clear();
    for (const BucketItem& item : sh.bucket) {
      const Command& c = batch[item.cmd];
      const KeyedAccess access = extract_(c);
      std::array<std::uint64_t, 4> ks;
      std::size_t nks = 0;
      for (std::uint8_t k = 0; k < access.keys.size(); ++k) {
        if (item.key_mask & (1u << k)) ks[nks++] = access.keys[k];
      }
      const std::span<const std::uint64_t> keys(ks.data(), nks);
      Slot* me = &slots_[job_slots_[item.cmd]];
      const std::size_t before = sh.cands.size();
      {
        MutexLock lock(sh.mx);
        sh.index.for_each_conflicting(
            keys, access.write, [&](const KeyIndex::Entry& e) {
              Slot* dep = static_cast<Slot*>(e.node);
              sh.cands.push_back(Candidate{
                  static_cast<std::uint32_t>(dep - slots_.data()), dep->seq});
              return true;  // eager removal keeps the index dead-entry-free
            });
        sh.index.add(keys, access.write, me);
      }
      if (sh.cands.size() != before) {
        sh.ranges.push_back(
            CandRange{item.cmd, static_cast<std::uint32_t>(sh.cands.size())});
      }
    }
  }
}

void ParallelInsertCos::merge_chunk(std::span<const Command> chunk) {
  const std::uint64_t t0 = kMetricsEnabled ? now_ns() : 0;
  // One cursor per shard: (next range index, start offset into cands).
  // Ranges were emitted in delivery order, so per command we only inspect
  // shards whose next range belongs to it — the merge is linear in the
  // total candidate count.
  for (auto& cur : merge_cursors_) cur = {0, 0};
  std::ptrdiff_t newly_ready = 0;
  {
    MutexLock lock(graph_mu_);
    for (std::uint32_t i = 0; i < chunk.size(); ++i) {
      const std::uint32_t me = job_slots_[i];
      Slot& mine = slots_[me];
      const std::uint64_t stamp = ++merge_counter_;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        auto& [ri, cb] = merge_cursors_[s];
        const std::vector<CandRange>& ranges = shards_[s]->ranges;
        if (ri >= ranges.size() || ranges[ri].cmd != i) continue;
        const std::vector<Candidate>& cands = shards_[s]->cands;
        for (std::uint32_t ci = cb; ci < ranges[ri].end; ++ci) {
          Slot& dep = slots_[cands[ci].slot];
          // Removed since the probe (or, with seq, a recycled generation —
          // impossible while the scheduler is parked in this chunk, but the
          // stamp keeps the invariant local): no edge, matching a serial
          // insert that ran after the removal.
          if (!dep.live || dep.seq != cands[ci].seq) continue;
          // The same dependency may surface through several keys or shards;
          // wire it once (delivery-order stamp, scheduler-only).
          if (dep.merge_stamp == stamp) continue;
          dep.merge_stamp = stamp;
          dep.out.push_back(me);
          ++mine.pending_in;
        }
        cb = ranges[ri].end;
        ++ri;
      }
      if (mine.pending_in == 0) {
        ready_q_.push_back(me);
        ++newly_ready;
      }
    }
  }
  // Wake workers only after the graph lock is dropped.
  if (newly_ready > 0) {
    m_.ready_enq.inc(static_cast<std::uint64_t>(newly_ready));
    ready_sem_.release(newly_ready);
  }
  m_.inserts.inc(chunk.size());
  size_.fetch_add(chunk.size(), std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  if constexpr (kMetricsEnabled) pm_.merge_ns.inc(now_ns() - t0);
}

CosHandle ParallelInsertCos::get() {
  if (!ready_sem_.acquire()) return {};  // closed
  std::uint32_t idx = 0;
  {
    MutexLock lock(graph_mu_);
    assert(!ready_q_.empty());
    idx = ready_q_.front();
    ready_q_.pop_front();
  }
  m_.gets.inc();
  // Handle encodes the arena index (+1 so a valid handle is never null);
  // the command pointer is stable until remove() recycles the slot.
  return CosHandle{&slots_[idx].cmd,
                   reinterpret_cast<void*>(static_cast<std::uintptr_t>(idx) + 1)};
}

void ParallelInsertCos::remove(CosHandle h) {
  assert(h.node != nullptr);
  const auto idx = static_cast<std::uint32_t>(
      reinterpret_cast<std::uintptr_t>(h.node) - 1);
  Slot& mine = slots_[idx];
  std::ptrdiff_t newly_ready = 0;
  {
    // Phase 1: leave the graph. Clearing `live` here — before the index
    // entries go — is what lets the merge step trust (live, seq): any probe
    // that still finds this node's entries produces a candidate the merge
    // rejects once `live` is down.
    MutexLock lock(graph_mu_);
    mine.live = false;
    for (const std::uint32_t d : mine.out) {
      Slot& dep = slots_[d];
      assert(dep.pending_in > 0);
      if (--dep.pending_in == 0) {
        ready_q_.push_back(d);
        ++newly_ready;
      }
    }
    mine.out.clear();
  }
  if (newly_ready > 0) {
    m_.ready_enq.inc(static_cast<std::uint64_t>(newly_ready));
    ready_sem_.release(newly_ready);
  }
  // Phase 2: drop the shard index entries, one shard lock at a time. The
  // slot's keys are still readable: recycling (below) has not happened.
  const KeyedAccess access = extract_(mine.cmd);
  for (std::uint8_t k = 0; k < access.keys.size(); ++k) {
    if (k > 0 && access.keys[k] == access.keys[k - 1]) continue;
    const std::uint64_t key = access.keys[k];
    Shard& sh = *shards_[shard_of(key)];
    MutexLock lock(sh.mx);
    sh.index.remove(std::span<const std::uint64_t>(&key, 1), &mine);
  }
  // Phase 3: recycle. Only now may the scheduler re-stamp the slot, so no
  // stale index entry can ever reach a recycled generation.
  {
    MutexLock lock(graph_mu_);
    free_list_.push_back(idx);
  }
  m_.removes.inc();
  size_.fetch_sub(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  space_.release();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
ParallelInsertCos::debug_edges() {
  MutexLock lock(graph_mu_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  for (const Slot& s : slots_) {
    if (!s.live) continue;
    for (const std::uint32_t d : s.out) {
      edges.emplace_back(s.cmd.id, slots_[d].cmd.id);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::size_t ParallelInsertCos::approx_size() const {
  return size_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
}

}  // namespace psmr
