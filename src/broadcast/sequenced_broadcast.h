// Sequenced atomic broadcast — the ordering substrate under each replica.
//
// Substitute for BFT-SMaRt's ordering protocol in its crash-fault
// configuration: a leader-based, majority-ack sequenced broadcast over
// n = 2f+1 replicas (Paxos phase-2 pattern with a stable leader, plus a
// Viewstamped-Replication-style view change for leader failure).
//
// Normal case:
//   The leader batches adaptively (group commit). submit(cmds) proposes at
//   once when none of the leader's slots is in flight, i.e. its newest slot
//   has committed; otherwise the commands join the pending batch, which is
//   proposed as soon as the in-flight slot commits. batch_max and
//   batch_timeout_us cap a batch: it also goes out when it reaches batch_max
//   commands or batch_timeout_us after its first command. The timer sleeps
//   until that deadline, so the cap is honoured to timer precision, not
//   rounded up to a tick. With n = 1 a slot commits on proposal, so every
//   submit proposes at once. The leader assigns the next sequence number
//   and sends ACCEPT(view, seq, batch); replicas log it and answer ACCEPTED;
//   on a majority (counting itself) the leader sends COMMIT; every replica
//   delivers committed batches in sequence order (gap-free) through the
//   deliver callback. If loss eats a slot's ACCEPTs or ACCEPTEDs on every
//   follower link, the leader's tick re-sends the oldest uncommitted slot's
//   ACCEPT, a heartbeat interval after it last went out, to the replicas
//   that have not acknowledged it.
//
// Log retention:
//   ACCEPTED(seq, delivered) carries the sender's delivery watermark. The
//   leader keeps each peer's highest report and derives stable = min(its own
//   watermark, every peer's); COMMIT(seq, stable) and HEARTBEAT carry it.
//   Every replica erases the slots <= min(stable, its own watermark): no
//   replica can need them again. Watermarks only grow, so reports from
//   earlier views stay valid lower bounds. While a replica is down or cut
//   off, stable stalls and retained_slots caps the log instead. A replica
//   told a stable beyond its own watermark is a restarted incarnation and
//   asks for state transfer (see GapFn).
//
// Leader failure:
//   The leader heartbeats when idle. A replica that hears nothing for
//   leader_timeout starts view change v+1: it sends VIEWCHANGE(v+1, its
//   accepted log) to the new leader (view round-robin). The new leader
//   collects a majority of VIEWCHANGE messages, selects for each slot the
//   entry accepted in the highest view (committed entries are majority-
//   replicated, so they always survive the majority intersection), fills
//   holes with no-op batches, and installs the result with NEWVIEW, after
//   which normal case resumes. Uncommitted entries may be re-proposed; the
//   SMR layer deduplicates by (client, client_seq) so re-execution never
//   happens.
//
// Delivery ordering guarantee (uniform total order): all replicas deliver
// the same batches in the same sequence order; delivery is gap-free and
// each batch is delivered at most once per replica.
//
// Threading: handle() is invoked by the network endpoint dispatcher, which
// also proposes the pending batch when an ACCEPTED commits a slot; submit()
// by any thread; an internal timer thread flushes batches at their deadline
// and, every tick_interval_ms, drives heartbeats and failure detection. All
// state is guarded by one mutex; the deliver callback is invoked while *not*
// holding it, in delivery order.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "broadcast/messages.h"
#include "common/metrics.h"
#include "common/ranked_mutex.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace psmr {

class SequencedBroadcast {
 public:
  struct Config {
    std::size_t batch_max = 64;
    // Cap on how long a batch that has not filled waits for the in-flight
    // slot to commit, counted from its first command, to timer precision.
    std::uint64_t batch_timeout_us = 500;
    std::uint64_t heartbeat_interval_ms = 10;
    std::uint64_t leader_timeout_ms = 100;
    // Paces heartbeats and failure detection only; it does not delay
    // batches.
    std::uint64_t tick_interval_ms = 2;
    // Cap on delivered slots kept for view changes and laggards while some
    // replica is not delivering (otherwise slots go once stable). A replica
    // that falls further behind than this needs state transfer (see on_gap).
    std::uint64_t retained_slots = 1024;
  };

  // `deliver` receives each committed batch exactly once, in sequence
  // order, possibly from the timer or dispatcher thread — it must not block
  // for long (the SMR replica hands off to its scheduler queue).
  using DeliverFn = std::function<void(std::uint64_t seq,
                                       const std::vector<Command>& batch)>;

  // Invoked (at most every 200 ms) when a peer's traffic shows this
  // replica lags beyond the retention window, or reports a stable slot this
  // replica has not delivered (a restarted incarnation), so ordinary
  // delivery can no longer catch it up; `peer` is a replica that has the
  // missing history and `our_delivered` is this replica's delivery
  // watermark. The SMR layer reacts with a state-transfer request. NOTE:
  // invoked with the engine's internal mutex held — the handler must not
  // call back into this engine.
  using GapFn = std::function<void(NodeId peer, std::uint64_t our_delivered)>;

  SequencedBroadcast(Transport& net, NodeId self, int index,
                     std::vector<NodeId> replicas, Config config,
                     DeliverFn deliver);

  void set_gap_handler(GapFn on_gap) {
    MutexLock lock(mu_);
    on_gap_ = std::move(on_gap);
  }

  // State-transfer install: everything up to and including `seq` is covered
  // by an externally restored checkpoint. Prunes the log below it and moves
  // the delivery watermark; later committed slots resume delivering
  // normally. No-op if `seq` is not ahead of the watermark.
  void install_checkpoint(std::uint64_t seq);
  ~SequencedBroadcast();

  SequencedBroadcast(const SequencedBroadcast&) = delete;
  SequencedBroadcast& operator=(const SequencedBroadcast&) = delete;

  void start();
  void stop();

  // Feeds protocol messages (types msg::kAccept .. msg::kNewView).
  void handle(NodeId from, const MessagePtr& m);

  // Atomic-broadcast "broadcast" primitive: enqueues commands for ordering.
  // Only effective at the current leader; callers forward client requests
  // to every replica and non-leaders ignore them. Returns false if this
  // replica does not believe itself leader (so callers may drop or buffer).
  bool submit(const std::vector<Command>& cmds);

  bool is_leader() const;
  std::uint64_t view() const;
  std::uint64_t last_delivered() const;
  // Slots currently held in the log (observability and tests).
  std::size_t log_slots() const;

 private:
  struct Slot {
    std::uint64_t view = 0;  // view in which the current value was accepted
    std::vector<Command> batch;
    std::set<int> acks;  // replica indices that ACCEPTED (leader only)
    bool committed = false;
    std::uint64_t sent_ns = 0;  // leader: when its ACCEPT last went out
  };

  int leader_of(std::uint64_t v) const {
    return static_cast<int>(v % replicas_.size());
  }

  // Leader side: true while the newest slot awaits its majority. Followers
  // ACCEPT in order over FIFO links, so without loss the newest slot commits
  // last; an older slot that loss stalls holds back delivery, not proposals.
  // The log is the leader's own since its view was installed (NEWVIEW
  // re-proposes every uncommitted slot), and a pruned slot was delivered, so
  // nothing carries over from an earlier view.
  bool slot_in_flight_locked() const PSMR_REQUIRES(mu_) {
    return !log_.empty() && !log_.rbegin()->second.committed;
  }

  struct Metrics {
    Counter& proposals;           // batches proposed (leader side)
    Counter& timeout_proposals;   // of those, proposed by the batch timer
    Counter& delivered_batches;   // batches delivered in order
    Counter& delivered_commands;  // commands in those batches
    Counter& heartbeats;          // heartbeats sent while leader
    Counter& gap_reports;         // gap handler firings (throttled)
    Counter& checkpoint_installs;
    Counter& view_changes;        // view changes this replica initiated
    Gauge& seq_lag;               // highest slot seen minus delivered
  };

  // All of the following require mu_ held. try_deliver_locked releases and
  // reacquires mu_ around the deliver callback (directly on the mutex, so
  // the static analysis and the rank checker both track it).
  // Returns how many slots it proposed.
  std::uint64_t propose_locked() PSMR_REQUIRES(mu_);
  void try_deliver_locked() PSMR_REQUIRES(mu_);
  // Raises stable_ to min(last_delivered_, every peer's reported watermark).
  void advance_stable_locked() PSMR_REQUIRES(mu_);
  // Adopts a leader's stable watermark (see the header comment).
  void note_stable_locked(int from_index, std::uint64_t stable)
      PSMR_REQUIRES(mu_);
  // Erases slots every replica has delivered, and slots beyond the
  // retained_slots cap.
  void prune_locked() PSMR_REQUIRES(mu_);
  void broadcast_to_replicas_locked(const MessagePtr& m) PSMR_REQUIRES(mu_);
  // Leader: sends the oldest uncommitted slot's ACCEPT again, to the
  // replicas that have not acknowledged it, once it has waited a heartbeat
  // interval.
  void resend_stalled_accept_locked(std::uint64_t now) PSMR_REQUIRES(mu_);
  void start_view_change_locked(std::uint64_t target_view)
      PSMR_REQUIRES(mu_);
  void process_view_change_locked(int from_index, const ViewChangeMsg& vc)
      PSMR_REQUIRES(mu_);
  void adopt_new_view_locked(const NewViewMsg& nv) PSMR_REQUIRES(mu_);
  std::vector<LogEntrySummary> accepted_log_locked() const
      PSMR_REQUIRES(mu_);

  void on_accept(int from_index, const AcceptMsg& m);
  void on_accepted(int from_index, const AcceptedMsg& m);
  void on_commit(int from_index, const CommitMsg& m);
  void on_heartbeat(int from_index, const HeartbeatMsg& m);
  void maybe_report_gap_locked(int from_index, std::uint64_t their_seq)
      PSMR_REQUIRES(mu_);
  void report_gap_locked(int from_index) PSMR_REQUIRES(mu_);

  void timer_loop();

  Transport& net_;
  const NodeId self_;
  const int index_;
  const std::vector<NodeId> replicas_;
  const Config config_;
  const DeliverFn deliver_;
  GapFn on_gap_ PSMR_GUARDED_BY(mu_);

  // mu_ is held across net_.send (broadcast rank precedes transport rank)
  // and released around the deliver callback.
  mutable RankedMutex<lock_rank::kBroadcast> mu_;
  std::uint64_t view_ PSMR_GUARDED_BY(mu_) = 0;
  // next_seq_: leader's next slot to assign; last_delivered_: highest
  // gap-free delivered slot.
  std::uint64_t next_seq_ PSMR_GUARDED_BY(mu_) = 1;
  std::uint64_t last_delivered_ PSMR_GUARDED_BY(mu_) = 0;
  // Highest delivery watermark each replica (by index) reported in an
  // ACCEPTED; stable_: every replica has delivered every slot <= it.
  std::vector<std::uint64_t> peer_delivered_ PSMR_GUARDED_BY(mu_);
  std::uint64_t stable_ PSMR_GUARDED_BY(mu_) = 0;
  std::map<std::uint64_t, Slot> log_ PSMR_GUARDED_BY(mu_);
  std::vector<Command> pending_ PSMR_GUARDED_BY(mu_);
  std::uint64_t pending_since_ns_ PSMR_GUARDED_BY(mu_) = 0;
  std::uint64_t last_leader_activity_ns_ PSMR_GUARDED_BY(mu_) = 0;
  std::uint64_t last_heartbeat_sent_ns_ PSMR_GUARDED_BY(mu_) = 0;

  // Single-deliverer guard for try_deliver_locked.
  bool delivering_ PSMR_GUARDED_BY(mu_) = false;

  // The gap handler fires at most once per kGapReportIntervalNs.
  static constexpr std::uint64_t kGapReportIntervalNs = 200'000'000;
  std::uint64_t last_gap_report_ns_ PSMR_GUARDED_BY(mu_) = 0;

  // View-change state.
  bool view_changing_ PSMR_GUARDED_BY(mu_) = false;
  std::uint64_t target_view_ PSMR_GUARDED_BY(mu_) = 0;
  std::map<int, ViewChangeMsg> view_change_msgs_
      PSMR_GUARDED_BY(mu_);  // by replica index

  const Metrics metrics_;

  std::thread timer_;
  CondVar timer_cv_;
  bool stopping_ PSMR_GUARDED_BY(mu_) = false;
  std::atomic<bool> started_{false};
};

}  // namespace psmr
