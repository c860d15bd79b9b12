// Lock-free DAG — the paper's Algorithms 5, 6 and 7.
//
// Two layers, as in §6:
//  - A blocking layer of two counting semaphores handles the inherently
//    blocking conditions: `space` parks insert() while the graph is full,
//    `ready` parks get() while no command is ready (Alg. 5).
//  - A lock-free layer implements the graph. Nodes carry an atomic state
//    traversed in one direction (wtg -> rdy -> exe -> rmd); get() reserves a
//    node with a single CAS (rdy -> exe), tried only on nodes it reads as
//    rdy; remove() is a *logical* removal
//    (store rmd) plus readiness tests on dependents; *physical* removal is
//    lazy, performed by the (single) insert thread — the paper's
//    helpedRemove.
//
// Memory reclamation: the paper runs on the JVM and leans on GC for
// traversal safety. Here, every operation pins an epoch (memory/ebr.h) and
// helpedRemove retires unlinked nodes to the epoch domain, which frees them
// only after two epoch advances — i.e., when no pinned traversal can still
// hold a reference.
//
// Deviations from the pseudocode (documented in DESIGN.md):
//  - lfInsert does not walk the list: it finds the new node's dependencies
//    through the key index (dep_tracker.h) and links at a tail shortcut.
//    The edges are the ones the walk would record. Without the walk there
//    is nothing to help in passing, so helpedRemove runs in a sweep over
//    the list once sweep_threshold() nodes are logically removed.
//  - Nodes are created in an extra state `ins` ("inserting") and switch to
//    wtg only after the insert thread has recorded *all* dependency edges
//    and linked the node. Without it, a concurrent lfRemove of an
//    early-recorded dependency could observe the node with a partially
//    built dep_on set and wrongly mark it ready (the paper notes the
//    all-edges-before-visible requirement in §6.2 but createNode starts
//    nodes at wtg, leaving the window open).
//  - lfGet restarts from the head if it reaches the end of the list without
//    reserving a node (its ready permit may correspond to a node behind the
//    traversal cursor).
//  - The atomics on the state/readiness handshake are seq_cst: the exact-
//    once accounting of ready permits relies on the single total order (see
//    the comment on test_ready).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/semaphore.h"
#include "cos/cos.h"
#include "cos/dep_tracker.h"
#include "memory/ebr.h"

namespace psmr {

class LockFreeCos final : public Cos {
 public:
  // `conflict` must have a key extractor (conflict.h); make_cos checks.
  LockFreeCos(std::size_t max_size, ConflictFn conflict);
  ~LockFreeCos() override;

  bool insert_batch(std::span<const Command> batch) override;
  CosHandle get() override;
  void remove(CosHandle h) override;
  void close() override;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> debug_edges() override;

  std::size_t capacity() const override { return max_size_; }
  std::size_t approx_size() const override {
    return population_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  }
  const char* name() const override { return "lock-free"; }

  // Objects the EBR domain has freed so far, for tests: unlinked nodes plus
  // the dep_me arrays that append_dependent replaced with larger ones.
  std::uint64_t objects_reclaimed() const { return ebr_.total_freed(); }

 private:
  enum State : std::uint8_t { kIns = 0, kWtg = 1, kRdy = 2, kExe = 3, kRmd = 4 };

  struct Node {
    explicit Node(const Command& command) : cmd(command) {}
    ~Node();

    Command cmd;
    std::atomic<std::uint8_t> st{kIns};

    // Dependencies of this node (edges from older nodes). Sized exactly and
    // written by the insert thread before the node leaves state ins;
    // afterwards entries are only *cleared* (to nullptr, by the insert
    // thread during helpedRemove of the dependency). `dep_on_count` is
    // plain: it is final before the ins -> wtg transition that readers must
    // observe first.
    std::unique_ptr<std::atomic<Node*>[]> dep_on;
    std::size_t dep_on_count = 0;

    // Dependents of this node (edges to newer nodes). Append-only,
    // written only by the insert thread, read concurrently by removers:
    // a growable array published via atomic pointer + count. Readers load
    // the count first, then the array — a newer (larger) array always
    // contains every entry a previously published count covers, and
    // superseded arrays are retired through the COS's epoch domain while
    // readers may still hold them.
    std::atomic<std::atomic<Node*>*> dep_me{nullptr};
    std::atomic<std::size_t> dep_me_count{0};
    std::size_t dep_me_capacity = 0;  // insert thread only

    std::uint64_t probe_stamp = 0;  // insert-thread-only probe de-dup

    std::atomic<Node*> nxt{nullptr};
  };

  // Lock-free layer (Alg. 7). Return values are the number of nodes that
  // became ready, to be published as `ready` permits by the blocking layer.
  int lf_insert(const Command& c);
  Node* lf_get();
  int lf_remove(Node* n);

  static int test_ready(Node* n);
  void helped_remove(Node* gone, Node* prev);
  void append_dependent(Node* node, Node* dependent);

  // Physically unlinks every logically removed node. Insert thread only.
  // Triggered when rmd_pending_ crosses the threshold.
  void sweep_removed();
  std::size_t sweep_threshold() const {
    return max_size_ / 2 > 64 ? max_size_ / 2 : 64;
  }

  const std::size_t max_size_;
  // The index is touched *only* by the insert thread, and an entry's node
  // is retired to the EBR domain strictly after helped_remove purged its
  // entries — so entries may name logically removed (kRmd) nodes, which
  // probes prune lazily, but never freed memory.
  const KeyExtractor extract_;
  KeyIndex index_;
  std::uint64_t probe_seq_ = 0;            // inserter only
  Node* tail_ = nullptr;                   // inserter only; last linked node
  std::atomic<std::size_t> rmd_pending_{0};  // logical removals not yet swept

  Semaphore space_;
  Semaphore ready_;
  std::atomic<Node*> head_{nullptr};
  std::atomic<std::size_t> population_{0};
  std::atomic<bool> closed_{false};

  // Every retire comes from the insert thread: physical removal
  // (helped_remove) and dep_me array replacement are confined to it
  // (§6.2.1), which is the domain's single-retirer contract.
  EbrDomain ebr_;
  std::vector<Node*> scratch_deps_;  // insert-probe scratch: inserter only
};

}  // namespace psmr
