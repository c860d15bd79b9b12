// Fine-grained DAG — the paper's Algorithms 3 and 4.
//
// Each graph node carries its own mutex; get() and remove() traverse the
// delivery-ordered node list with hand-over-hand locking (lock coupling):
// lock the successor before unlocking the current node, so traversals cannot
// overtake one another and the first node in delivery order serializes
// operations while disjoint suffixes proceed concurrently. Two counting
// semaphores implement the blocking conditions (graph full / nothing ready),
// as in Algorithm 3.
//
// Deviations from the pseudocode, documented in DESIGN.md:
//  - insert() does not walk the list: it links the new node at the tail,
//    hidden from get() until wired, and finds its dependencies through the
//    key index (dep_tracker.h) under index_mu_, locking each dependency
//    individually. The edges are the ones Alg. 4's scan would record.
//  - get() restarts from the head when it reaches the end of the list
//    without finding a ready node (a node behind the traversal cursor may
//    have become ready after the cursor passed it; the pseudocode leaves
//    this case implicit).
//  - remove(n) first unlinks n (holding its predecessor and n), then keeps
//    n locked while walking its successors to delete outgoing edges. The
//    pseudocode keeps n linked until the end; unlinking first is equivalent
//    (no traversal can reach n once unlinked) and keeps the lock order
//    acyclic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ranked_mutex.h"
#include "common/semaphore.h"
#include "cos/cos.h"
#include "cos/dep_tracker.h"

namespace psmr {

class FineGrainedCos final : public Cos {
 public:
  // `conflict` must have a key extractor (conflict.h); make_cos checks.
  FineGrainedCos(std::size_t max_size, ConflictFn conflict);
  ~FineGrainedCos() override;

  bool insert_batch(std::span<const Command> batch) override;
  CosHandle get() override;
  void remove(CosHandle h) override;
  void close() override;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> debug_edges() override;

  std::size_t capacity() const override { return max_size_; }
  std::size_t approx_size() const override {
    return population_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  }
  const char* name() const override { return "fine-grained"; }

 private:
  // Lock ranks (validated at runtime in checked builds): index_mu_ before
  // any node mutex; node mutexes nest only in list order, which the rank
  // checker cannot see — that intra-rank order is AllowSameRank'd here and
  // validated by TSan's lock-order graph instead. The hand-over-hand
  // unique_lock/swap idiom is opaque to Clang TSA, so this class is
  // deliberately not GUARDED_BY-annotated (DESIGN.md "Lock hierarchy").
  using NodeMutex = RankedMutex<lock_rank::kCosNode, /*AllowSameRank=*/true>;
  using IndexMutex = RankedMutex<lock_rank::kCosIndex>;

  struct Node {
    explicit Node(const Command& command) : cmd(command) {}
    Node() = default;  // head sentinel

    Command cmd{};
    NodeMutex mx;
    // All fields below are guarded by `mx`, except `out`, which is guarded
    // by the *owning* node's mx (edges from this node are added/queried only
    // while this node is locked), and `probe_stamp`, which only the insert
    // thread touches.
    bool executing = false;
    // Set (under mx) in remove() phase 1, just before unlinking. insert()
    // checks it to skip nodes mid-removal; a *linked* node always has
    // defunct == false.
    bool defunct = false;
    int in_count = 0;
    std::uint64_t probe_stamp = 0;  // insert-thread-only probe de-dup
    std::unordered_set<Node*> out;  // later nodes depending on this one
    Node* next = nullptr;
  };

  // One command of insert_batch: Alg. 4's insert (see fine_grained.cc).
  bool insert_one(const Command& c);

  const std::size_t max_size_;
  const KeyExtractor extract_;

  // index_mu_ guards index_ *and* doubles as the deletion fence: remove()
  // acquires it (holding no node locks) after unlinking, purges the node's
  // index entries, and only then frees the node — so the insert thread,
  // which holds index_mu_ across its whole probe, can dereference any
  // pointer it reads from the index without use-after-free.
  IndexMutex index_mu_;
  KeyIndex index_;
  std::uint64_t probe_seq_ = 0;
  // Last linked node (or &head_). Written by the inserter under index_mu_ +
  // the tail node's mx; repaired by remove() (to the predecessor) under the
  // node's and predecessor's mx. May be stale when the inserter reads it —
  // the link loop re-reads until it holds a live tail.
  std::atomic<Node*> tail_{&head_};

  Semaphore space_;
  Semaphore ready_;
  Node head_;  // sentinel; head_.next guarded by head_.mx
  std::atomic<std::size_t> population_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace psmr
