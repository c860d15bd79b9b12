#include "broadcast/sequenced_broadcast.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace psmr {

SequencedBroadcast::SequencedBroadcast(Transport& net, NodeId self, int index,
                                       std::vector<NodeId> replicas,
                                       Config config, DeliverFn deliver)
    : net_(net),
      self_(self),
      index_(index),
      replicas_(std::move(replicas)),
      config_(config),
      deliver_(std::move(deliver)),
      peer_delivered_(replicas_.size(), 0),
      metrics_{MetricsRegistry::global().counter("broadcast.proposals"),
               MetricsRegistry::global().counter(
                   "broadcast.timeout_proposals"),
               MetricsRegistry::global().counter("broadcast.delivered_batches"),
               MetricsRegistry::global().counter(
                   "broadcast.delivered_commands"),
               MetricsRegistry::global().counter("broadcast.heartbeats"),
               MetricsRegistry::global().counter("broadcast.gap_reports"),
               MetricsRegistry::global().counter(
                   "broadcast.checkpoint_installs"),
               MetricsRegistry::global().counter("broadcast.view_changes"),
               MetricsRegistry::global().gauge("broadcast.seq_lag")} {}

SequencedBroadcast::~SequencedBroadcast() { stop(); }

void SequencedBroadcast::start() {
  if (started_.exchange(true)) return;
  {
    MutexLock lock(mu_);
    last_leader_activity_ns_ = now_ns();
  }
  timer_ = std::thread([this] { timer_loop(); });
}

void SequencedBroadcast::stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  timer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
}

bool SequencedBroadcast::is_leader() const {
  MutexLock lock(mu_);
  return leader_of(view_) == index_ && !view_changing_;
}

std::uint64_t SequencedBroadcast::view() const {
  MutexLock lock(mu_);
  return view_;
}

std::uint64_t SequencedBroadcast::last_delivered() const {
  MutexLock lock(mu_);
  return last_delivered_;
}

std::size_t SequencedBroadcast::log_slots() const {
  MutexLock lock(mu_);
  return log_.size();
}

bool SequencedBroadcast::submit(const std::vector<Command>& cmds) {
  bool arm_timer = false;
  {
    MutexLock lock(mu_);
    if (leader_of(view_) != index_ || view_changing_) return false;
    const bool was_empty = pending_.empty();
    if (was_empty) pending_since_ns_ = now_ns();
    pending_.insert(pending_.end(), cmds.begin(), cmds.end());
    if (pending_.size() >= config_.batch_max || !slot_in_flight_locked()) {
      propose_locked();
    } else {
      arm_timer = was_empty;
    }
  }
  // A batch opened: wake the timer once so it sleeps until this batch's
  // deadline rather than the next tick.
  if (arm_timer) timer_cv_.notify_one();
  return true;
}

void SequencedBroadcast::broadcast_to_replicas_locked(const MessagePtr& m) {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<int>(i) == index_) continue;
    net_.send(self_, replicas_[i], m);
  }
}

std::uint64_t SequencedBroadcast::propose_locked() {
  const std::uint64_t first = next_seq_;
  while (!pending_.empty()) {
    const std::size_t take = std::min(pending_.size(), config_.batch_max);
    std::vector<Command> batch(pending_.begin(),
                               pending_.begin() + static_cast<long>(take));
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(take));

    const std::uint64_t seq = next_seq_++;
    metrics_.proposals.inc();
    Slot& slot = log_[seq];
    slot.view = view_;
    slot.batch = batch;
    slot.acks = {index_};
    slot.sent_ns = now_ns();
    broadcast_to_replicas_locked(
        make_message<AcceptMsg>(view_, seq, std::move(batch)));

    // Single-replica deployments (n = 1): self-ack is already a majority.
    if (slot.acks.size() * 2 > replicas_.size()) {
      slot.committed = true;
      broadcast_to_replicas_locked(
          make_message<CommitMsg>(view_, seq, stable_));
    }
    last_heartbeat_sent_ns_ = now_ns();  // proposals count as liveness
  }
  // Counted before delivery drops mu_, when other threads may propose.
  const std::uint64_t proposed = next_seq_ - first;
  try_deliver_locked();
  return proposed;
}

void SequencedBroadcast::try_deliver_locked() {
  if (delivering_) return;  // the active deliverer will pick up new commits
  delivering_ = true;
  while (true) {
    auto it = log_.find(last_delivered_ + 1);
    if (it == log_.end() || !it->second.committed) break;
    const std::uint64_t seq = ++last_delivered_;
    std::vector<Command> batch = it->second.batch;  // keep for view changes
    metrics_.delivered_batches.inc();
    metrics_.delivered_commands.inc(batch.size());
    // Deliver outside mu_ (the callback pushes into the scheduler queue and
    // must not see the broadcast lock held); delivering_ keeps this loop
    // single-threaded across the gap.
    mu_.unlock();
    if (!batch.empty()) deliver_(seq, batch);
    mu_.lock();
  }
  delivering_ = false;
  advance_stable_locked();
  prune_locked();
  // Lag behind the highest slot we know of (committed or not); 0 when the
  // log is fully delivered or empty.
  const std::uint64_t top = log_.empty() ? last_delivered_
                                         : std::max(log_.rbegin()->first,
                                                    last_delivered_);
  metrics_.seq_lag.set(static_cast<std::int64_t>(top - last_delivered_));
}

void SequencedBroadcast::advance_stable_locked() {
  std::uint64_t stable = last_delivered_;
  for (std::size_t i = 0; i < peer_delivered_.size(); ++i) {
    if (static_cast<int>(i) != index_) {
      stable = std::min(stable, peer_delivered_[i]);
    }
  }
  stable_ = std::max(stable_, stable);
}

void SequencedBroadcast::note_stable_locked(int from_index,
                                            std::uint64_t stable) {
  // Every replica, this one included, has delivered up to `stable` — unless
  // this is a restarted incarnation whose earlier self did. Those slots are
  // gone everywhere, so waiting for them is futile.
  if (stable > last_delivered_) report_gap_locked(from_index);
  stable_ = std::max(stable_, stable);
  prune_locked();
}

void SequencedBroadcast::prune_locked() {
  const std::uint64_t stable = std::min(stable_, last_delivered_);
  while (!log_.empty()) {
    const std::uint64_t seq = log_.begin()->first;
    // A replica lagging past the retained_slots cap needs state transfer
    // (install_checkpoint).
    if (seq > stable && seq + config_.retained_slots >= last_delivered_) {
      break;
    }
    log_.erase(log_.begin());
  }
}

void SequencedBroadcast::handle(NodeId from, const MessagePtr& m) {
  int from_index = -1;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i] == from) from_index = static_cast<int>(i);
  }
  if (from_index < 0) return;  // not a replica

  switch (m->type) {
    case msg::kAccept:
      on_accept(from_index, message_as<AcceptMsg>(m));
      break;
    case msg::kAccepted:
      on_accepted(from_index, message_as<AcceptedMsg>(m));
      break;
    case msg::kCommit:
      on_commit(from_index, message_as<CommitMsg>(m));
      break;
    case msg::kHeartbeat:
      on_heartbeat(from_index, message_as<HeartbeatMsg>(m));
      break;
    case msg::kViewChange: {
      const auto& vc = message_as<ViewChangeMsg>(m);
      MutexLock lock(mu_);
      process_view_change_locked(from_index, vc);
      try_deliver_locked();
      break;
    }
    case msg::kNewView: {
      const auto& nv = message_as<NewViewMsg>(m);
      MutexLock lock(mu_);
      adopt_new_view_locked(nv);
      try_deliver_locked();
      break;
    }
    default:
      break;
  }
}

void SequencedBroadcast::on_accept(int from_index, const AcceptMsg& m) {
  MutexLock lock(mu_);
  if (m.view != view_ || view_changing_) {
    // A higher-view ACCEPT means we missed a NEWVIEW; join the newer view
    // optimistically (its leader is alive and proposing).
    if (m.view > view_) {
      view_ = m.view;
      view_changing_ = false;
    } else {
      return;
    }
  }
  last_leader_activity_ns_ = now_ns();
  maybe_report_gap_locked(from_index, m.seq);
  if (m.seq > last_delivered_) {  // else delivered here, maybe pruned
    Slot& slot = log_[m.seq];
    slot.view = m.view;
    slot.batch = m.batch;
  }
  net_.send(self_, replicas_[static_cast<std::size_t>(leader_of(view_))],
            make_message<AcceptedMsg>(m.view, m.seq, last_delivered_));
}

void SequencedBroadcast::on_accepted(int from_index, const AcceptedMsg& m) {
  MutexLock lock(mu_);
  // A watermark is a valid lower bound whatever view it was sent in.
  std::uint64_t& peer = peer_delivered_[static_cast<std::size_t>(from_index)];
  peer = std::max(peer, m.delivered);
  advance_stable_locked();
  prune_locked();
  if (m.view != view_ || leader_of(view_) != index_) return;
  auto it = log_.find(m.seq);
  if (it == log_.end()) return;  // pruned: the sender has delivered it
  Slot& slot = it->second;
  if (slot.committed) {
    // Late ACCEPTED (typically after a view change) for a slot we already
    // committed: the sender may still be missing the COMMIT, so re-send it
    // point-to-point.
    net_.send(self_, replicas_[static_cast<std::size_t>(from_index)],
              make_message<CommitMsg>(view_, m.seq, stable_));
    return;
  }
  slot.acks.insert(from_index);
  if (slot.acks.size() * 2 > replicas_.size()) {
    slot.committed = true;
    broadcast_to_replicas_locked(
        make_message<CommitMsg>(view_, m.seq, stable_));
    // Group commit: what arrived while the slot was in flight goes out now
    // (propose_locked delivers too).
    if (!pending_.empty()) {
      propose_locked();
    } else {
      try_deliver_locked();
    }
  }
}

void SequencedBroadcast::on_commit(int from_index, const CommitMsg& m) {
  MutexLock lock(mu_);
  last_leader_activity_ns_ = now_ns();
  note_stable_locked(from_index, m.stable);
  auto it = log_.find(m.seq);
  if (it == log_.end() || it->second.batch.empty()) {
    // Links are FIFO, so the ACCEPT precedes the COMMIT on the leader->us
    // link; an unknown slot here was pruned (already delivered) or its
    // ACCEPT was lost, and state transfer repairs the gap (see GapFn).
    return;
  }
  it->second.committed = true;
  try_deliver_locked();
}

void SequencedBroadcast::on_heartbeat(int from_index, const HeartbeatMsg& m) {
  MutexLock lock(mu_);
  if (m.view >= view_) {
    if (m.view > view_) {
      view_ = m.view;
      view_changing_ = false;
    }
    last_leader_activity_ns_ = now_ns();
  }
  maybe_report_gap_locked(from_index, m.committed_up_to);
  note_stable_locked(from_index, m.stable);
}

// Requires mu_. Fires the gap handler when a peer is further ahead than the
// retained_slots cap lets ordinary delivery catch up.
void SequencedBroadcast::maybe_report_gap_locked(int from_index,
                                                 std::uint64_t their_seq) {
  if (their_seq <= last_delivered_ + config_.retained_slots) return;
  report_gap_locked(from_index);
}

// Requires mu_. Fires the gap handler (throttled): the peer demonstrably
// has history we can no longer obtain through ordinary delivery.
void SequencedBroadcast::report_gap_locked(int from_index) {
  if (!on_gap_) return;
  const std::uint64_t now = now_ns();
  if (now - last_gap_report_ns_ < kGapReportIntervalNs) return;
  last_gap_report_ns_ = now;
  metrics_.gap_reports.inc();
  on_gap_(replicas_[static_cast<std::size_t>(from_index)], last_delivered_);
}

void SequencedBroadcast::install_checkpoint(std::uint64_t seq) {
  MutexLock lock(mu_);
  if (seq <= last_delivered_) return;
  metrics_.checkpoint_installs.inc();
  last_delivered_ = seq;
  while (!log_.empty() && log_.begin()->first <= seq) {
    log_.erase(log_.begin());
  }
  try_deliver_locked();  // slots beyond the checkpoint may be committed
}

std::vector<LogEntrySummary> SequencedBroadcast::accepted_log_locked() const {
  std::vector<LogEntrySummary> entries;
  entries.reserve(log_.size());
  for (const auto& [seq, slot] : log_) {
    if (!slot.batch.empty()) entries.push_back({seq, slot.view, slot.batch});
  }
  return entries;
}

// A slot whose ACCEPT or ACCEPTED is lost on every follower link never
// commits by itself, and gap-free delivery stops behind it on every
// replica. Only the oldest uncommitted slot blocks delivery; a later one
// that stalls becomes the oldest once the earlier ones commit.
void SequencedBroadcast::resend_stalled_accept_locked(std::uint64_t now) {
  auto it = log_.upper_bound(last_delivered_);
  while (it != log_.end() && it->second.committed) ++it;
  if (it == log_.end()) return;
  Slot& slot = it->second;
  // `now` was read before the tick could drop mu_ to deliver, so a slot
  // proposed meanwhile may carry a later sent_ns.
  if (now < slot.sent_ns + config_.heartbeat_interval_ms * 1'000'000ull) {
    return;
  }
  slot.sent_ns = now;
  const MessagePtr accept =
      make_message<AcceptMsg>(view_, it->first, slot.batch);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (slot.acks.contains(static_cast<int>(i))) continue;
    net_.send(self_, replicas_[i], accept);
  }
}

void SequencedBroadcast::start_view_change_locked(std::uint64_t target_view) {
  metrics_.view_changes.inc();
  view_changing_ = true;
  target_view_ = target_view;
  view_change_msgs_.clear();
  pending_.clear();  // clients will retransmit
  last_leader_activity_ns_ = now_ns();

  auto vc = std::make_shared<const ViewChangeMsg>(
      target_view, accepted_log_locked(), last_delivered_);
  const int new_leader = leader_of(target_view);
  if (new_leader == index_) {
    process_view_change_locked(index_, *vc);
  } else {
    net_.send(self_, replicas_[static_cast<std::size_t>(new_leader)], vc);
  }
}

void SequencedBroadcast::process_view_change_locked(int from_index,
                                                    const ViewChangeMsg& vc) {
  if (vc.new_view < view_ || (view_ == vc.new_view && !view_changing_)) {
    return;  // stale
  }
  if (leader_of(vc.new_view) != index_) {
    // Someone else timed out before us; join their view change.
    if (!view_changing_ || target_view_ < vc.new_view) {
      start_view_change_locked(vc.new_view);
    }
    return;
  }
  if (!view_changing_ || target_view_ != vc.new_view) {
    start_view_change_locked(vc.new_view);
  }
  view_change_msgs_.emplace(from_index, vc);
  if (view_change_msgs_.size() * 2 <= replicas_.size()) return;

  // Majority collected: compute the new log — per slot, the entry accepted
  // in the highest view wins. Committed entries are majority-replicated, so
  // the majority intersection guarantees they are all present.
  std::map<std::uint64_t, LogEntrySummary> merged;
  for (const auto& [idx, msg_vc] : view_change_msgs_) {
    for (const auto& entry : msg_vc.accepted_log) {
      auto it = merged.find(entry.seq);
      if (it == merged.end() || it->second.view < entry.view) {
        merged[entry.seq] = entry;
      }
    }
  }
  // Install locally.
  view_ = vc.new_view;
  view_changing_ = false;
  view_change_msgs_.clear();
  std::uint64_t max_seq = last_delivered_;
  for (auto& [seq, entry] : merged) {
    max_seq = std::max(max_seq, seq);
    if (seq <= last_delivered_) continue;
    Slot& slot = log_[seq];
    slot.view = view_;
    slot.batch = entry.batch;
    slot.acks = {index_};
    slot.committed = false;
    slot.sent_ns = now_ns();  // NEWVIEW below carries it
  }
  next_seq_ = max_seq + 1;

  std::vector<LogEntrySummary> install;
  install.reserve(merged.size());
  for (auto& [seq, entry] : merged) {
    install.push_back({seq, view_, entry.batch});
  }
  broadcast_to_replicas_locked(make_message<NewViewMsg>(view_, install));
  last_heartbeat_sent_ns_ = 0;  // heartbeat immediately
}

void SequencedBroadcast::adopt_new_view_locked(const NewViewMsg& nv) {
  if (nv.view < view_) return;
  view_ = nv.view;
  view_changing_ = false;
  view_change_msgs_.clear();
  last_leader_activity_ns_ = now_ns();
  const int leader = leader_of(view_);
  for (const auto& entry : nv.log) {
    // A slot delivered here (perhaps pruned since) carries the committed
    // value, which the new view re-proposes: acknowledge it too.
    if (entry.seq > last_delivered_) {
      Slot& slot = log_[entry.seq];
      slot.view = view_;
      slot.batch = entry.batch;
    }
    net_.send(self_, replicas_[static_cast<std::size_t>(leader)],
              make_message<AcceptedMsg>(view_, entry.seq, last_delivered_));
  }
}

void SequencedBroadcast::timer_loop() {
  const std::uint64_t tick_ns = config_.tick_interval_ms * 1'000'000ull;
  const std::uint64_t batch_timeout_ns = config_.batch_timeout_us * 1000ull;
  MutexLock lock(mu_);
  std::uint64_t next_tick_ns = now_ns() + tick_ns;
  while (!stopping_) {
    // Sleep until the next tick, or until the open batch is due if that is
    // sooner. submit() wakes us when a batch opens, which re-arms the wait.
    bool am_leader = leader_of(view_) == index_ && !view_changing_;
    std::uint64_t wake_ns = next_tick_ns;
    if (am_leader && !pending_.empty()) {
      wake_ns = std::min(wake_ns, pending_since_ns_ + batch_timeout_ns);
    }
    std::uint64_t now = now_ns();
    if (wake_ns > now) {
      timer_cv_.wait_for(mu_, std::chrono::nanoseconds(wake_ns - now));
    }
    if (stopping_) return;
    now = now_ns();
    am_leader = leader_of(view_) == index_ && !view_changing_;
    if (am_leader && !pending_.empty() &&
        now - pending_since_ns_ >= batch_timeout_ns) {
      metrics_.timeout_proposals.inc(propose_locked());
    }
    if (now < next_tick_ns) continue;
    // The tick: heartbeats and failure detection.
    next_tick_ns = now + tick_ns;
    if (am_leader) {
      resend_stalled_accept_locked(now);
      if (now - last_heartbeat_sent_ns_ >=
          config_.heartbeat_interval_ms * 1'000'000ull) {
        metrics_.heartbeats.inc();
        broadcast_to_replicas_locked(
            make_message<HeartbeatMsg>(view_, last_delivered_, stable_));
        last_heartbeat_sent_ns_ = now;
      }
    } else {
      const std::uint64_t timeout_ns =
          config_.leader_timeout_ms * 1'000'000ull;
      if (now - last_leader_activity_ns_ >= timeout_ns) {
        // Escalate past views whose leader never materialized.
        const std::uint64_t next =
            view_changing_ ? target_view_ + 1 : view_ + 1;
        start_view_change_locked(next);
      }
    }
  }
}

}  // namespace psmr
