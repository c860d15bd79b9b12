// Striped (segment-locked) DAG — the paper's suggested middle point on the
// "lock granularity spectrum" (§7.3.2: "one could experiment with other
// granularities of locks (e.g., granular locks), trading concurrency for
// overhead").
//
// The delivery-ordered node list is chopped into fixed-width segments, each
// with its own mutex. Traversals (the get scan, the dead-segment sweep)
// couple *segment* locks instead of node locks — 1/width of the
// fine-grained handoffs. insert() finds its dependencies through the key
// index (dep_tracker.h) and locks each candidate's segment individually;
// remove() jumps directly to the node's segment (nodes carry a segment
// back-pointer) and releases its dependents one segment lock at a time.
// Coarse-grained is the width→∞ end of this spectrum and fine-grained the
// width=1 end.
//
// Not a CosKind: make_cos cannot build it and no option selects it. Only
// tests/striped_test.cc constructs it, until the class itself is deleted.
//
// Locking rules (same shape as the fine-grained proofs, at segment
// granularity):
//  - A node's fields are guarded by its segment's mutex.
//  - A traversal may only block on segment S while holding S's predecessor
//    (lock coupling).
//  - The insert probe records edge a->new under a's segment lock and checks
//    a's tombstone under that same lock, so a remover of a snapshots a's
//    dependents either before the edge (and the probe skips a) or after it
//    (and releases new). Nested locks follow list order: the tail last.
//  - remove's direct jumps take a single segment lock at a time, so they
//    cannot deadlock with couplers; a target segment cannot be freed
//    because it still holds a live node.
//  - Fully dead segments are unlinked by the insert thread's sweep while
//    holding the predecessor and the dead segment (nobody can be waiting on
//    it — waiting requires holding that same predecessor), then freed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/ranked_mutex.h"
#include "common/semaphore.h"
#include "cos/cos.h"
#include "cos/dep_tracker.h"

namespace psmr {

class StripedCos final : public Cos {
 public:
  // `conflict` must have a key extractor (conflict.h); make_cos checks.
  StripedCos(std::size_t max_size, ConflictFn conflict,
             std::size_t segment_width = 16);
  ~StripedCos() override;

  bool insert(const Command& c) override;
  CosHandle get() override;
  void remove(CosHandle h) override;
  void close() override;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> debug_edges() override;

  std::size_t capacity() const override { return max_size_; }
  std::size_t approx_size() const override {
    return population_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  }
  const char* name() const override { return "striped"; }

  std::size_t segment_width() const { return segment_width_; }

 private:
  struct Segment;

  struct Node {
    Command cmd;
    Segment* segment = nullptr;  // fixed at insertion
    bool executing = false;
    bool removed = false;
    int in_count = 0;
    std::uint64_t probe_stamp = 0;  // insert-thread-only probe de-dup
    std::vector<Node*> out;  // later nodes depending on this one
  };

  struct Segment {
    explicit Segment(std::size_t width) : nodes(width) {}
    // Segment locks share one rank (coupled walks and the insert probe
    // nest them strictly in list order — an intra-rank order the runtime
    // checker admits via AllowSameRank and TSan validates). The
    // unique_lock/swap coupling is opaque to Clang TSA, so fields rely on
    // the comment contract below rather than GUARDED_BY.
    RankedMutex<lock_rank::kCosSegment, /*AllowSameRank=*/true> mx;
    // Slots fill monotonically; `used` only grows, `live` falls to zero
    // when every node has been removed. All guarded by mx.
    std::vector<Node> nodes;
    std::size_t used = 0;
    std::size_t live = 0;
    Segment* next = nullptr;
  };

  // True iff the node's slot has been published (counted in `used`).
  // Caller must hold the node's segment mutex.
  static bool published_in_segment(const Node& node) {
    return static_cast<std::size_t>(&node - node.segment->nodes.data()) <
           node.segment->used;
  }

  // Reclaims fully dead non-tail segments. Insert thread only. Purges the
  // dead segments' index entries before freeing.
  void sweep_dead_segments();

  const std::size_t max_size_;
  const std::size_t segment_width_;
  // The index is touched *only* by the insert thread: entry
  // nodes live in segments, and segments are freed only on the insert path
  // (sweep_dead_segments), which purges their entries first — so an index
  // entry can dangle onto a removed node (probes prune those lazily under
  // its segment lock) but never onto freed memory.
  const KeyExtractor extract_;
  KeyIndex index_;
  std::uint64_t probe_seq_ = 0;
  // Segments that became fully dead in remove(); sweep trigger. May
  // transiently count the tail segment, which the sweep skips until it
  // stops being the tail.
  std::atomic<int> dead_segments_{0};

  Semaphore space_;
  Semaphore ready_;
  Segment head_;  // sentinel (width 0), never freed
  std::atomic<std::size_t> population_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace psmr
