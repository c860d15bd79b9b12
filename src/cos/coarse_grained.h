// Coarse-grained DAG — the paper's Algorithm 2 (the CBASE approach).
//
// One monitor (a single mutex plus two condition variables) protects the
// entire dependency graph; every COS primitive runs as a critical section.
// This is the baseline whose serialization the fine-grained and lock-free
// implementations attack.
//
// Representation: nodes in delivery order (intrusive via std::list), each
// node holding its pending-dependency count and the outgoing edge list, plus
// a key index over the live nodes. insert() finds its dependencies through
// the index rather than the paper's O(|N|) conflict scan (same edges; see
// dep_tracker.h); get() is an O(|N|) scan for the oldest ready node, exactly
// as in the paper's pseudocode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <utility>
#include <vector>

#include "common/ranked_mutex.h"
#include "common/thread_annotations.h"
#include "cos/cos.h"
#include "cos/dep_tracker.h"

namespace psmr {

class CoarseGrainedCos final : public Cos {
 public:
  // `conflict` must have a key extractor (conflict.h); make_cos checks.
  CoarseGrainedCos(std::size_t max_size, ConflictFn conflict);
  ~CoarseGrainedCos() override;

  bool insert_batch(std::span<const Command> batch) override;
  CosHandle get() override;
  void remove(CosHandle h) override;
  void close() override;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> debug_edges() override;

  std::size_t capacity() const override { return max_size_; }
  std::size_t approx_size() const override;
  const char* name() const override { return "coarse-grained"; }

 private:
  struct Node {
    explicit Node(const Command& command) : cmd(command) {}
    Command cmd;
    bool executing = false;
    int pending_in = 0;               // number of unresolved dependencies
    std::uint64_t probe_stamp = 0;    // last insert that saw this node (dedup)
    std::vector<Node*> out;           // later nodes that depend on this one
    std::list<Node>::iterator self;   // for O(1) erase in remove()
  };

  const std::size_t max_size_;
  const KeyExtractor extract_;

  // The monitor: one mutex over the whole graph. Node contents (out edges,
  // pending_in, executing) are guarded transitively — every Node lives in
  // nodes_ and is only reached with mu_ held.
  mutable RankedMutex<lock_rank::kCosMonitor> mu_;
  CondVar not_full_;   // "nFull" in the paper
  CondVar has_ready_;  // "hasReady" in the paper
  std::list<Node> nodes_ PSMR_GUARDED_BY(mu_);  // delivery order
  // Every live node, under its keys; insert() probes it instead of scanning
  // nodes_.
  KeyIndex index_ PSMR_GUARDED_BY(mu_);
  std::uint64_t probe_seq_ PSMR_GUARDED_BY(mu_) = 0;
  bool closed_ PSMR_GUARDED_BY(mu_) = false;
};

}  // namespace psmr
