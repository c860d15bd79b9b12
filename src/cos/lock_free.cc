#include "cos/lock_free.h"

#include <algorithm>
#include <thread>

#include "cos/cos_metrics.h"

namespace psmr {

LockFreeCos::Node::~Node() { delete[] dep_me.load(std::memory_order_relaxed); }  // NOLINT(psmr-relaxed-order-audit) destructor; node unreachable by now

LockFreeCos::LockFreeCos(std::size_t max_size, ConflictFn conflict)
    : max_size_(max_size),
      extract_(conflict_key_extractor(conflict)),
      index_(max_size),
      space_(static_cast<std::ptrdiff_t>(max_size)),
      ready_(0) {
  space_.instrument(&cos_metrics().insert_blocks,
                    &cos_metrics().insert_block_ns);
  ready_.instrument(&cos_metrics().get_blocks, &cos_metrics().get_block_ns);
}

LockFreeCos::~LockFreeCos() {
  close();
  // Workers are gone by contract once close() returned and they drained;
  // free whatever is still linked, then let the EBR domain drain its limbo
  // lists (its destructor would too, but doing it here keeps the node count
  // stats coherent before members die).
  Node* node = head_.load(std::memory_order_acquire);
  while (node != nullptr) {
    Node* next = node->nxt.load(std::memory_order_acquire);
    delete node;
    node = next;
  }
  ebr_.drain_all_unsafe();
}

// ---------------------------------------------------------------------------
// Blocking layer (Alg. 5).
// ---------------------------------------------------------------------------

bool LockFreeCos::insert_batch(std::span<const Command> batch) {
  // Chunk by capacity so the space acquisition can always complete.
  while (!batch.empty()) {
    const std::size_t take = std::min(batch.size(), max_size_);
    if (!space_.acquire(static_cast<std::ptrdiff_t>(take))) return false;
    // Per-command inserts: intra-batch edges arise naturally, as each
    // command is indexed before the next one probes.
    int ready_nodes = 0;
    for (const Command& c : batch.first(take)) ready_nodes += lf_insert(c);
    cos_metrics().inserts.inc(take);
    if (ready_nodes > 0) {
      cos_metrics().ready_enq.inc(static_cast<std::uint64_t>(ready_nodes));
    }
    ready_.release(ready_nodes);
    batch = batch.subspan(take);
  }
  return true;
}

CosHandle LockFreeCos::get() {
  if (!ready_.acquire()) return {};  // closed
  Node* node = lf_get();
  if (node == nullptr) return {};  // closed while searching
  cos_metrics().gets.inc();
  return {&node->cmd, node};
}

void LockFreeCos::remove(CosHandle h) {
  auto* node = static_cast<Node*>(h.node);
  const int ready_nodes = lf_remove(node);
  cos_metrics().removes.inc();
  if (ready_nodes > 0) {
    cos_metrics().ready_enq.inc(static_cast<std::uint64_t>(ready_nodes));
  }
  ready_.release(ready_nodes);
  space_.release();
}

void LockFreeCos::close() {
  closed_.store(true, std::memory_order_release);
  space_.close();
  ready_.close();
}

// ---------------------------------------------------------------------------
// Lock-free layer (Alg. 7).
// ---------------------------------------------------------------------------

// Returns 1 iff this call transitioned `n` from wtg to rdy.
//
// Correctness of the permit accounting hinges on two points:
//  (1) Exactly one caller wins the wtg -> rdy CAS, so a node is counted at
//      most once across the concurrent test_ready calls made by the insert
//      thread (end of lf_insert) and by removers (via dep_me).
//  (2) At least one caller's dependency check passes once the last
//      dependency is logically removed. The st load below is seq_cst: a
//      caller that observes st == wtg observes (happens-before) the node's
//      complete dep_on set, and in the seq_cst total order either the
//      inserter's final test_ready follows a dependency's rmd store (and
//      sees it satisfied), or that dependency's remover snapshots dep_me
//      after the node was appended (and tests it here).
int LockFreeCos::test_ready(Node* n) {
  if (n->st.load(std::memory_order_seq_cst) != kWtg) return 0;
  for (std::size_t i = 0; i < n->dep_on_count; ++i) {
    Node* dep = n->dep_on[i].load(std::memory_order_seq_cst);
    if (dep != nullptr && dep->st.load(std::memory_order_seq_cst) != kRmd) {
      return 0;  // a live dependency remains; its remover will re-test us
    }
  }
  std::uint8_t expected = kWtg;
  return n->st.compare_exchange_strong(expected, kRdy,
                                       std::memory_order_seq_cst)
             ? 1
             : 0;
}

// Grows/publishes the dependent list of `node`. Insert thread only.
void LockFreeCos::append_dependent(Node* node, Node* dependent) {
  const std::size_t count =
      node->dep_me_count.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
  if (count == node->dep_me_capacity) {
    const std::size_t new_capacity =
        node->dep_me_capacity == 0 ? 8 : node->dep_me_capacity * 2;
    auto* bigger = new std::atomic<Node*>[new_capacity];
    auto* old = node->dep_me.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
    for (std::size_t i = 0; i < count; ++i) {
      bigger[i].store(old[i].load(std::memory_order_relaxed),  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
                      std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
    }
    for (std::size_t i = count; i < new_capacity; ++i) {
      bigger[i].store(nullptr, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
    }
    // Publish the array before the count that makes new slots visible;
    // concurrent readers that loaded the old array only index below the
    // previously published count, which the old array still covers.
    node->dep_me.store(bigger, std::memory_order_seq_cst);
    node->dep_me_capacity = new_capacity;
    if (old != nullptr) {
      ebr_.retire_raw(old, [](void* p) {
        delete[] static_cast<std::atomic<Node*>*>(p);
      });
    }
  }
  node->dep_me.load(std::memory_order_relaxed)[count].store(  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
      dependent, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
  node->dep_me_count.store(count + 1, std::memory_order_seq_cst);
}

// Physically unlinks a logically removed node. Called only by the insert
// thread (topology changes are sequential, §6.2.1): clears the edges from
// `gone` out of its dependents' dep_on sets, bypasses it in the list, and
// retires its memory to the epoch domain.
void LockFreeCos::helped_remove(Node* gone, Node* prev) {
  // Purge the index entries *before* the node is retired; probes may have
  // already pruned some of them lazily.
  index_.remove(extract_(gone->cmd).keys, gone);
  const std::size_t dependents =
      gone->dep_me_count.load(std::memory_order_seq_cst);
  std::atomic<Node*>* dep_me = gone->dep_me.load(std::memory_order_seq_cst);
  for (std::size_t i = 0; i < dependents; ++i) {
    Node* dependent = dep_me[i].load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
    // nullptr: the dependent was physically removed before `gone` (the
    // unhook loop below cleared it). That happens when a sweep passes `gone`
    // while it is still executing, then helps the already-finished
    // dependent further down the list — `gone` itself is only helped by a
    // later sweep. Non-null entries are not yet physically removed, so
    // writing their dep_on is safe.
    if (dependent == nullptr) continue;
    for (std::size_t j = 0; j < dependent->dep_on_count; ++j) {
      if (dependent->dep_on[j].load(std::memory_order_relaxed) == gone) {  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
        dependent->dep_on[j].store(nullptr, std::memory_order_seq_cst);
        break;
      }
    }
  }
  // Unhook `gone` from the dep_me list of every dependency that is still
  // physically present (non-null dep_on entries — helped_remove of a
  // dependency nulls its entry, and all physical removal runs on this
  // thread). Without this, a later helped_remove of the dependency would
  // chase a dangling pointer to `gone` (use-after-free). Concurrent dep_me
  // readers (lf_remove) tolerate the null; a reader that already loaded the
  // entry is pinned, so `gone` outlives its traversal.
  for (std::size_t j = 0; j < gone->dep_on_count; ++j) {
    Node* dep = gone->dep_on[j].load(std::memory_order_seq_cst);
    if (dep == nullptr) continue;
    const std::size_t n = dep->dep_me_count.load(std::memory_order_seq_cst);
    std::atomic<Node*>* arr = dep->dep_me.load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < n; ++i) {
      if (arr[i].load(std::memory_order_relaxed) == gone) {  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
        arr[i].store(nullptr, std::memory_order_seq_cst);
        break;
      }
    }
  }
  Node* next = gone->nxt.load(std::memory_order_seq_cst);
  if (prev == nullptr) {
    head_.store(next, std::memory_order_seq_cst);
  } else {
    prev->nxt.store(next, std::memory_order_seq_cst);
  }
  ebr_.retire(gone);
}

// Alg. 7's insert, with dependency discovery via the key index instead of
// the list walk. The publication protocol — dep_me appends (seq_cst), exact
// dep_on materialization, link, ins -> wtg, test_ready — is the paper's;
// the exact-once permit accounting argument in test_ready only depends on
// that ordering, not on how the dependencies were discovered. Entries
// naming logically removed nodes are pruned by the probe; physical
// unlinking is deferred to sweep_removed(), which runs when half the window
// is logical garbage.
int LockFreeCos::lf_insert(const Command& c) {
  auto* added = new Node(c);
  auto guard = ebr_.pin();

  if (rmd_pending_.load(std::memory_order_relaxed) >= sweep_threshold()) {  // NOLINT(psmr-relaxed-order-audit) sweep-trigger heuristic; threshold is approximate
    sweep_removed();
  }

  scratch_deps_.clear();
  const KeyedAccess acc = extract_(c);
  const std::uint64_t stamp = ++probe_seq_;
  index_.for_each_conflicting(
      acc.keys, acc.write, [&](const KeyIndex::Entry& e) {
        Node* node = static_cast<Node*>(e.node);
        if (node->probe_stamp == stamp) return true;  // seen via another key
        if (node->st.load(std::memory_order_seq_cst) == kRmd) {
          return false;  // logically removed: no edge, prune the entry
        }
        // Record the edge on both endpoints. The dep_me append is
        // published immediately (concurrent removers must learn about the
        // dependent); the new node's own dep_on side stays private until
        // after the probe. A remover that reaches `added` through dep_me
        // before then bounces off the ins state in test_ready.
        node->probe_stamp = stamp;
        scratch_deps_.push_back(node);
        append_dependent(node, added);
        return true;
      });

  added->dep_on_count = scratch_deps_.size();
  if (!scratch_deps_.empty()) {
    added->dep_on =
        std::make_unique<std::atomic<Node*>[]>(scratch_deps_.size());
    for (std::size_t i = 0; i < scratch_deps_.size(); ++i) {
      added->dep_on[i].store(scratch_deps_[i], std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
    }
  }

  // Link at the tail shortcut (inserter-only; sweep_removed repairs it).
  // The tail node may be logically removed — linking after it is still
  // correct, it is simply bypassed at the next sweep.
  if (tail_ == nullptr) {
    head_.store(added, std::memory_order_seq_cst);
  } else {
    tail_->nxt.store(added, std::memory_order_seq_cst);
  }
  tail_ = added;
  index_.add(acc.keys, acc.write, added);
  population_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  added->st.store(kWtg, std::memory_order_seq_cst);
  return test_ready(added);
}

void LockFreeCos::sweep_removed() {
  std::size_t helped = 0;
  Node* prev = nullptr;
  Node* cur = head_.load(std::memory_order_seq_cst);
  while (cur != nullptr) {
    Node* next = cur->nxt.load(std::memory_order_seq_cst);
    if (cur->st.load(std::memory_order_seq_cst) == kRmd) {
      helped_remove(cur, prev);
      ++helped;
      cur = next;
      continue;
    }
    prev = cur;
    cur = next;
  }
  tail_ = prev;  // last live node (nullptr when the list emptied)
  if (helped > 0) {
    rmd_pending_.fetch_sub(helped, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) sweep-trigger heuristic; threshold is approximate
  }
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
LockFreeCos::debug_edges() {
  // Requires quiescence. Live nodes' non-null dep_me entries are all live:
  // a dependent cannot execute (and so cannot be removed) before every one
  // of its dependencies was removed; entries of physically removed
  // dependents are nulled by helped_remove.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  auto guard = ebr_.pin();
  for (Node* cur = head_.load(std::memory_order_seq_cst); cur != nullptr;
       cur = cur->nxt.load(std::memory_order_seq_cst)) {
    if (cur->st.load(std::memory_order_seq_cst) == kRmd) continue;
    const std::size_t count = cur->dep_me_count.load(std::memory_order_seq_cst);
    std::atomic<Node*>* dep_me = cur->dep_me.load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < count; ++i) {
      Node* dependent = dep_me[i].load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
      if (dependent == nullptr) continue;
      edges.emplace_back(cur->cmd.id, dependent->cmd.id);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

LockFreeCos::Node* LockFreeCos::lf_get() {
  while (true) {
    {
      auto guard = ebr_.pin();
      Node* cur = head_.load(std::memory_order_seq_cst);
      while (cur != nullptr) {
        // Read before reserving: only a node seen in rdy is worth the
        // locked CAS. Most of the list is wtg, exe or logically removed, and
        // a plain load keeps the workers from bouncing those cache lines.
        std::uint8_t expected = kRdy;
        if (cur->st.load(std::memory_order_seq_cst) == kRdy &&
            cur->st.compare_exchange_strong(expected, kExe,
                                            std::memory_order_seq_cst)) {
          return cur;
        }
        cur = cur->nxt.load(std::memory_order_seq_cst);
      }
    }
    // Our permit's node is behind where the traversal already passed (some
    // other get() may have taken the node we were signalled for, leaving a
    // different, earlier node for us). Retry with a fresh pin.
    if (closed_.load(std::memory_order_acquire)) return nullptr;
    std::this_thread::yield();
  }
}

int LockFreeCos::lf_remove(Node* n) {
  auto guard = ebr_.pin();
  n->st.store(kRmd, std::memory_order_seq_cst);  // logical removal
  rmd_pending_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) sweep-trigger heuristic; threshold is approximate
  population_.fetch_sub(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  int ready_nodes = 0;
  const std::size_t dependents =
      n->dep_me_count.load(std::memory_order_seq_cst);
  std::atomic<Node*>* dep_me = n->dep_me.load(std::memory_order_seq_cst);
  for (std::size_t i = 0; i < dependents; ++i) {
    Node* dependent = dep_me[i].load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) remover-side edge maintenance; publication ordered by the insert CAS
    // Entries are nulled when a dependent is physically removed; a
    // physically removed dependent is past rdy and needs no test.
    if (dependent == nullptr) continue;
    ready_nodes += test_ready(dependent);
  }
  return ready_nodes;
}

}  // namespace psmr
