#include "cos/coarse_grained.h"

#include <algorithm>

#include "cos/cos_metrics.h"

namespace psmr {

CoarseGrainedCos::CoarseGrainedCos(std::size_t max_size, ConflictFn conflict)
    : max_size_(max_size),
      extract_(conflict_key_extractor(conflict)),
      index_(max_size) {}

CoarseGrainedCos::~CoarseGrainedCos() { close(); }

// One monitor section per command, as in Alg. 2's insert.
bool CoarseGrainedCos::insert_batch(std::span<const Command> batch) {
  for (const Command& c : batch) {
    MutexLock lock(mu_);
    if (nodes_.size() >= max_size_ && !closed_) {
      cos_metrics().insert_blocks.inc();
      const std::uint64_t t0 = metrics_now_ns();
      while (nodes_.size() >= max_size_ && !closed_) not_full_.wait(mu_);
      cos_metrics().insert_block_ns.inc(metrics_now_ns() - t0);
    }
    if (closed_) return false;
    cos_metrics().inserts.inc();

    nodes_.emplace_back(c);
    auto it = std::prev(nodes_.end());
    it->self = it;
    Node& added = *it;

    // Alg. 2 lines 14-16: every older conflicting command must run first.
    // Found by O(k) index probes instead of the scan over nodes_. remove()
    // prunes entries eagerly under mu_, so every entry is live; the stamp
    // de-duplicates nodes that share several keys with c.
    const KeyedAccess acc = extract_(c);
    const std::uint64_t stamp = ++probe_seq_;
    index_.for_each_conflicting(
        acc.keys, acc.write, [&](const KeyIndex::Entry& e) {
          Node* node = static_cast<Node*>(e.node);
          if (node->probe_stamp != stamp) {
            node->probe_stamp = stamp;
            node->out.push_back(&added);
            ++added.pending_in;
          }
          return true;
        });
    index_.add(acc.keys, acc.write, &added);
    if (added.pending_in == 0) {
      cos_metrics().ready_enq.inc();
      has_ready_.notify_one();
    }
  }
  return true;
}

CosHandle CoarseGrainedCos::get() {
  MutexLock lock(mu_);
  bool blocked = false;
  std::uint64_t t0 = 0;
  while (true) {
    if (closed_) return {};
    // Alg. 2 line 22-26: oldest waiting node with no dependencies.
    for (Node& node : nodes_) {
      if (!node.executing && node.pending_in == 0) {
        node.executing = true;
        if (blocked) cos_metrics().get_block_ns.inc(metrics_now_ns() - t0);
        cos_metrics().gets.inc();
        return {&node.cmd, &node};
      }
    }
    if (!blocked) {
      blocked = true;
      t0 = metrics_now_ns();
      cos_metrics().get_blocks.inc();
    }
    has_ready_.wait(mu_);
  }
}

void CoarseGrainedCos::remove(CosHandle h) {
  auto* node = static_cast<Node*>(h.node);
  MutexLock lock(mu_);
  int freed = 0;
  for (Node* dependent : node->out) {
    if (--dependent->pending_in == 0 && !dependent->executing) ++freed;
  }
  cos_metrics().removes.inc();
  if (freed > 0) cos_metrics().ready_enq.inc(static_cast<std::uint64_t>(freed));
  if (freed == 1) {
    has_ready_.notify_one();
  } else if (freed > 1) {
    has_ready_.notify_all();
  }
  index_.remove(extract_(node->cmd).keys, node);
  nodes_.erase(node->self);
  not_full_.notify_one();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
CoarseGrainedCos::debug_edges() {
  MutexLock lock(mu_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  for (const Node& node : nodes_) {
    for (const Node* dependent : node.out) {
      edges.emplace_back(node.cmd.id, dependent->cmd.id);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

void CoarseGrainedCos::close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  has_ready_.notify_all();
}

std::size_t CoarseGrainedCos::approx_size() const {
  MutexLock lock(mu_);
  return nodes_.size();
}

}  // namespace psmr
