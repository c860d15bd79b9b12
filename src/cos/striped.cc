#include "cos/striped.h"

#include <algorithm>
#include <thread>

#include "cos/cos_metrics.h"

namespace psmr {
namespace {

// Dead segments tolerated before the insert thread runs a reclamation
// sweep. Only the tail segment is ever exempt from a sweep, so a triggered
// sweep always reclaims at least threshold-1 segments.
constexpr int kSweepThreshold = 4;

}  // namespace

StripedCos::StripedCos(std::size_t max_size, ConflictFn conflict,
                       std::size_t segment_width)
    : max_size_(max_size),
      segment_width_(segment_width == 0 ? 1 : segment_width),
      extract_(conflict_key_extractor(conflict)),
      index_(max_size),
      space_(static_cast<std::ptrdiff_t>(max_size)),
      ready_(0),
      head_(0) {
  space_.instrument(&cos_metrics().insert_blocks,
                    &cos_metrics().insert_block_ns);
  ready_.instrument(&cos_metrics().get_blocks, &cos_metrics().get_block_ns);
}

StripedCos::~StripedCos() {
  close();
  Segment* segment = head_.next;
  while (segment != nullptr) {
    Segment* next = segment->next;
    delete segment;
    segment = next;
  }
}

bool StripedCos::insert(const Command& c) {
  if (!space_.acquire()) return false;  // closed

  if (dead_segments_.load(std::memory_order_relaxed) >= kSweepThreshold) {  // NOLINT(psmr-relaxed-order-audit) sweep-trigger heuristic; threshold is approximate
    sweep_dead_segments();
  }

  // Reserve the slot in the tail segment (inserts are single-threaded, so
  // the tail is stable for the duration of the call). The slot stays
  // unpublished (not counted in `used`) until the probe completes.
  Segment* tail = &head_;
  {
    // Walk to the tail without locks: `next` pointers are only changed by
    // this same thread (appends and dead-segment sweeps both happen on the
    // insert path).
    while (tail->next != nullptr) tail = tail->next;
    std::lock_guard tail_lock(tail->mx);
    if (tail == &head_ || tail->used == tail->nodes.size()) {
      auto* fresh = new Segment(segment_width_);
      tail->next = fresh;
      tail = fresh;
    }
  }
  Node* added = nullptr;
  {
    std::lock_guard tail_lock(tail->mx);
    added = &tail->nodes[tail->used];
    added->cmd = c;
    added->segment = tail;
  }

  // Find the dependencies through the index (Alg. 4's scan, at segment
  // granularity, would record the same edges). Each candidate is checked
  // alive under its own segment's lock (the same lock remove() tombstones
  // under), and the dependent-side increment nests the tail lock inside the
  // candidate's segment lock — segment locks are only ever nested in list
  // order, and the tail is last, so this cannot deadlock with the coupled
  // traversals. Dead entries are pruned from the index as the probe finds
  // them. The dependent-side counter lives in the still unpublished slot: a
  // dependency removed between our edge record and publication decrements
  // in_count without signalling, and the final publish-under-tail-lock
  // check observes the result.
  const KeyedAccess acc = extract_(c);
  const std::uint64_t stamp = ++probe_seq_;
  index_.for_each_conflicting(
      acc.keys, acc.write, [&](const KeyIndex::Entry& e) {
        Node* node = static_cast<Node*>(e.node);
        if (node->probe_stamp == stamp) return true;  // seen via other key
        std::unique_lock seg_lock(node->segment->mx);
        if (node->removed) return false;  // prune dead entry
        node->probe_stamp = stamp;
        node->out.push_back(added);
        if (node->segment == tail) {
          ++added->in_count;  // segment lock == tail lock
        } else {
          std::lock_guard tail_lock(tail->mx);
          ++added->in_count;
        }
        return true;
      });
  index_.add(acc.keys, acc.write, added);

  // Publish and test readiness under the tail lock — the same lock a
  // remover holds when its decrement reaches zero, so exactly one side
  // observes the ready transition.
  bool is_ready = false;
  {
    std::lock_guard tail_lock(tail->mx);
    ++tail->used;
    ++tail->live;
    is_ready = added->in_count == 0;
  }
  population_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  cos_metrics().inserts.inc();
  if (is_ready) {
    cos_metrics().ready_enq.inc();
    ready_.release();
  }
  return true;
}

CosHandle StripedCos::get() {
  if (!ready_.acquire()) return {};  // closed
  cos_metrics().gets.inc();
  while (true) {
    Segment* prev = &head_;
    std::unique_lock prev_lock(prev->mx);
    Segment* cur = prev->next;
    while (cur != nullptr) {
      std::unique_lock cur_lock(cur->mx);
      for (std::size_t i = 0; i < cur->used; ++i) {
        Node& node = cur->nodes[i];
        if (!node.removed && !node.executing && node.in_count == 0) {
          node.executing = true;
          return {&node.cmd, &node};
        }
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

void StripedCos::remove(CosHandle h) {
  auto* node = static_cast<Node*>(h.node);

  // Tombstone the node and snapshot its dependents under its own segment's
  // lock. The insert probe checks `removed` under this same lock before
  // recording an edge, so the snapshot is complete: any later edge can only
  // be added to a node the inserter saw alive, i.e., before this point.
  std::vector<Node*> dependents;
  bool segment_died = false;
  {
    std::lock_guard lock(node->segment->mx);
    node->removed = true;
    --node->segment->live;
    segment_died = node->segment->live == 0 &&
                   node->segment->used == node->segment->nodes.size();
    dependents.swap(node->out);
  }
  if (segment_died) {
    dead_segments_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) sweep-trigger heuristic; threshold is approximate
  }

  // Release dependents. One lock at a time (never while holding another),
  // so the direct jumps cannot deadlock with coupled traversals. A
  // dependent still carrying our edge cannot have executed, so its segment
  // is alive.
  int freed = 0;
  for (Node* dependent : dependents) {
    std::lock_guard lock(dependent->segment->mx);
    if (--dependent->in_count == 0 && !dependent->executing &&
        published_in_segment(*dependent)) {
      ++freed;
    }
  }

  population_.fetch_sub(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) approximate occupancy gauge
  cos_metrics().removes.inc();
  if (freed > 0) cos_metrics().ready_enq.inc(static_cast<std::uint64_t>(freed));
  ready_.release(freed);
  space_.release();
}

void StripedCos::sweep_dead_segments() {
  // Unlinks fully dead segments while holding the predecessor and the dead
  // segment: nobody can be waiting on it, since waiting requires holding
  // that same predecessor, and only the insert thread relinks. The last
  // segment is skipped — it is the next insert's append target — and is
  // swept once a successor exists.
  int swept = 0;
  Segment* prev = &head_;
  std::unique_lock prev_lock(prev->mx);
  Segment* cur = prev->next;
  while (cur != nullptr) {
    std::unique_lock cur_lock(cur->mx);
    if (cur->next != nullptr && cur->live == 0 &&
        cur->used == cur->nodes.size()) {
      prev->next = cur->next;
      cur_lock.unlock();
      // Purge before delete: probes must never chase an entry into freed
      // memory. Entries may already be gone (pruned lazily by a probe).
      for (Node& node : cur->nodes) {
        index_.remove(extract_(node.cmd).keys, &node);
      }
      delete cur;
      ++swept;
      cur = prev->next;
      continue;
    }
    prev_lock.swap(cur_lock);
    prev = cur;
    cur = cur->next;
  }
  prev_lock.unlock();
  if (swept > 0) dead_segments_.fetch_sub(swept, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) sweep-trigger heuristic; threshold is approximate
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> StripedCos::debug_edges() {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  for (Segment* segment = head_.next; segment != nullptr;
       segment = segment->next) {
    std::lock_guard lock(segment->mx);
    for (std::size_t i = 0; i < segment->used; ++i) {
      Node& node = segment->nodes[i];
      if (node.removed) continue;
      for (const Node* dependent : node.out) {
        edges.emplace_back(node.cmd.id, dependent->cmd.id);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

void StripedCos::close() {
  closed_.store(true, std::memory_order_release);
  space_.close();
  ready_.close();
}

}  // namespace psmr
