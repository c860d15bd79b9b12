#include "cos/fine_grained.h"

#include <algorithm>
#include <thread>

#include "cos/cos_metrics.h"

namespace psmr {

FineGrainedCos::FineGrainedCos(std::size_t max_size, ConflictFn conflict)
    : max_size_(max_size),
      extract_(conflict_key_extractor(conflict)),
      index_(max_size),
      space_(static_cast<std::ptrdiff_t>(max_size)),
      ready_(0) {
  space_.instrument(&cos_metrics().insert_blocks,
                    &cos_metrics().insert_block_ns);
  ready_.instrument(&cos_metrics().get_blocks, &cos_metrics().get_block_ns);
}

FineGrainedCos::~FineGrainedCos() {
  close();
  // Reclaim whatever is still linked. Workers must have stopped by now
  // (close() unblocked them), so no locks are needed.
  Node* node = head_.next;
  while (node != nullptr) {
    Node* next = node->next;
    delete node;
    node = next;
  }
}

bool FineGrainedCos::insert_batch(std::span<const Command> batch) {
  for (const Command& c : batch) {
    if (!insert_one(c)) return false;
  }
  return true;
}

// Insert (Alg. 4's insert, with dependencies found through the key index).
// The paper's hand-over-hand scan is also a moving barrier: no remover can
// overtake it, which is what makes "record edge, then link" safe there. The
// index probe has no such barrier, so the order is inverted — link first,
// hidden behind executing=true, then wire edges:
//
//   1. Take index_mu_. While it is held no node can be freed (remove()'s
//      deletion fence), so index entries may be dereferenced safely.
//   2. Link at the tail (tail_ shortcut; re-read until live). The node is
//      reachable but executing=true hides it from get(), and a concurrent
//      remove() phase 2 that decrements it will not count it as freed.
//   3. Probe the index: for each live candidate (checked under its mx —
//      defunct nodes are skipped and pruned), record the edge and bump
//      in_count *under the candidate's lock*, so a subsequent removal of
//      the candidate is guaranteed to observe the edge and deliver the
//      decrement (the phase-2 walk reaches us: we are already linked).
//   4. Publish: drop executing under our own lock; if in_count is 0 —
//      every recorded dependency already delivered its decrement — release
//      the ready permit ourselves. Otherwise the final decrement does
//      (it sees executing == false). Exactly one side releases.
//
// Deadlock-freedom: index_mu_ precedes all node locks (removers only take
// it with no node locks held); node locks nest in list order only (a
// candidate precedes the just-linked tail node).
bool FineGrainedCos::insert_one(const Command& c) {
  if (!space_.acquire()) return false;  // closed
  auto* added = new Node(c);
  added->executing = true;  // hidden until fully wired (no lock needed yet)
  const KeyedAccess acc = extract_(c);

  std::unique_lock fence(index_mu_);
  const std::uint64_t stamp = ++probe_seq_;
  while (true) {
    Node* tail = tail_.load(std::memory_order_acquire);
    std::unique_lock tail_lock(tail->mx);
    // tail_ may be stale: the node could have been unlinked (defunct) or a
    // removal repaired tail_ to a node that has since gained a successor.
    // Each retry observes a strictly older list position, and &head_ is
    // never defunct, so this terminates.
    if (!tail->defunct && tail->next == nullptr) {
      tail->next = added;
      tail_.store(added, std::memory_order_release);
      break;
    }
  }

  index_.for_each_conflicting(
      acc.keys, acc.write, [&](const KeyIndex::Entry& e) {
        Node* dep = static_cast<Node*>(e.node);
        if (dep->probe_stamp == stamp) return true;  // seen via another key
        std::unique_lock dep_lock(dep->mx);
        if (dep->defunct) return false;  // mid-removal: no edge, prune entry
        dep->probe_stamp = stamp;
        dep->out.insert(added);
        {
          // Nested inside dep's lock so dep's removal cannot slip between
          // the edge record and the increment.
          std::lock_guard added_lock(added->mx);
          ++added->in_count;
        }
        return true;
      });
  index_.add(acc.keys, acc.write, added);
  fence.unlock();

  population_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  bool is_ready = false;
  {
    std::lock_guard added_lock(added->mx);
    added->executing = false;
    is_ready = added->in_count == 0;
  }
  cos_metrics().inserts.inc();
  if (is_ready) {
    cos_metrics().ready_enq.inc();
    ready_.release();
  }
  return true;
}

CosHandle FineGrainedCos::get() {
  if (!ready_.acquire()) return {};  // closed
  cos_metrics().gets.inc();
  while (true) {
    // The permit guarantees a ready node exists *somewhere*; it may be
    // behind us by the time we pass it (another thread's remove() can free
    // nodes anywhere in the list), so on reaching the end we restart.
    Node* prev = &head_;
    std::unique_lock prev_lock(prev->mx);
    Node* cur = prev->next;
    while (cur != nullptr) {
      std::unique_lock cur_lock(cur->mx);
      if (!cur->executing && cur->in_count == 0) {
        cur->executing = true;
        return {&cur->cmd, cur};
      }
      prev_lock.swap(cur_lock);
      prev = cur;
      cur = cur->next;
    }
    prev_lock.unlock();
    if (closed_.load(std::memory_order_acquire)) return {};
    std::this_thread::yield();
  }
}

void FineGrainedCos::remove(CosHandle h) {
  auto* node = static_cast<Node*>(h.node);

  // Phase 1: hand-over-hand to node's predecessor, then unlink node while
  // holding both. After this, no traversal can reach `node`.
  Node* prev = &head_;
  std::unique_lock prev_lock(prev->mx);
  while (prev->next != node) {
    Node* cur = prev->next;
    std::unique_lock cur_lock(cur->mx);
    prev_lock.swap(cur_lock);
    prev = cur;
  }
  std::unique_lock node_lock(node->mx);
  node->defunct = true;  // inserts holding a stale index entry now skip us
  prev->next = node->next;
  // Repair the inserter's tail shortcut while holding both locks: the
  // inserter compares/links under the tail node's mx, so it either sees the
  // repaired value or finds `node` defunct and retries.
  if (tail_.load(std::memory_order_relaxed) == node) {  // NOLINT(psmr-relaxed-order-audit) shortcut hint; re-validated under the node locks
    tail_.store(prev, std::memory_order_release);
  }
  Node* successor = node->next;
  // Lock the successor *before* releasing prev: a thread may only wait on
  // (or delete) a node while holding its list predecessor, which for the
  // successor is `prev` once node is unlinked — holding prev here is what
  // keeps the successor alive until we own its lock.
  std::unique_lock<NodeMutex> walk_lock;
  if (successor != nullptr) {
    walk_lock = std::unique_lock(successor->mx);
  }
  prev_lock.unlock();

  // Phase 2: still holding node's lock (so its edge set is stable), walk the
  // successors hand-over-hand and delete outgoing edges, counting nodes that
  // became ready (Alg. 4 lines 32-39).
  int freed = 0;
  if (successor != nullptr) {
    Node* walk = successor;
    while (true) {
      if (node->out.contains(walk)) {
        if (--walk->in_count == 0 && !walk->executing) ++freed;
      }
      Node* next = walk->next;
      if (next == nullptr) break;
      std::unique_lock next_lock(next->mx);
      walk_lock.swap(next_lock);
      walk = next;
    }
  }

  node_lock.unlock();
  if (walk_lock.owns_lock()) walk_lock.unlock();
  {
    // Deletion fence: with *no node locks held* (index_mu_ precedes node
    // locks in the hierarchy), wait out any inserter that may still hold an
    // index entry naming this node, and purge the entries. Only after this
    // is the memory safe to free.
    std::lock_guard fence(index_mu_);
    index_.remove(extract_(node->cmd).keys, node);
  }
  delete node;
  population_.fetch_sub(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  cos_metrics().removes.inc();
  if (freed > 0) cos_metrics().ready_enq.inc(static_cast<std::uint64_t>(freed));
  ready_.release(freed);
  space_.release();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
FineGrainedCos::debug_edges() {
  // Requires quiescence (no concurrent operations), like the destructor.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  for (Node* node = head_.next; node != nullptr; node = node->next) {
    for (const Node* dependent : node->out) {
      edges.emplace_back(node->cmd.id, dependent->cmd.id);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

void FineGrainedCos::close() {
  closed_.store(true, std::memory_order_release);
  space_.close();
  ready_.close();
}

}  // namespace psmr
