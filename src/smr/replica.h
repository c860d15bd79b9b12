// SMR replica (paper Fig. 1 and Alg. 1).
//
// Parallel mode ("P-SMR"): the atomic-broadcast deliver callback feeds a
// hand-off queue; the *scheduler* (parallelizer) thread pops delivered
// batches, deduplicates retransmissions, stamps delivery order, and inserts
// each command into the COS; a pool of *worker* threads loops
// get -> execute -> remove and replies to the command's client.
//
// Sequential mode (classical SMR): the scheduler thread itself executes
// every command in delivery order — no COS, no workers.
//
// Early-scheduling mode routes most commands straight to per-worker queues
// using the service's static class map and keeps the DAG only as a barrier
// fallback (cos/early_sched.h); the scheduler and worker loops are
// identical — the policy only changes which Cos is constructed.
//
// At-most-once execution: commands are identified by (client, client_seq).
// The scheduler keeps, per client, which of the last kReplyCacheWindow seqs
// up to the highest inserted one it has inserted. It skips a command whose
// seq is in that window and inserted, or older than the window (this
// absorbs both client retransmissions and re-proposals after a view
// change); a pipelined seq ordered after a higher one is still inserted.
// The replica answers retransmissions of already-executed commands from a
// per-client ring of the last kReplyCacheWindow replies.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/service.h"
#include "broadcast/sequenced_broadcast.h"
#include "common/blocking_queue.h"
#include "common/metrics.h"
#include "common/ranked_mutex.h"
#include "common/thread_annotations.h"
#include "cos/factory.h"
#include "net/transport.h"

namespace psmr {

class Replica {
 public:
  struct Config {
    // How delivery order becomes execution order: the COS dependency
    // graph (default), early scheduling (class-routed worker queues, DAG
    // fallback — uses the service's class_map()), or the classical
    // sequential baseline.
    SchedulerPolicy policy = SchedulerPolicy::kCosDag;
    // COS construction knobs (kind, capacity, indexed, reclaim,
    // segment_width). `cos.conflict` is ignored — the replica always uses
    // the service's conflict relation.
    CosOptions cos;
    int workers = 4;
    SequencedBroadcast::Config broadcast;
  };

  // Replies kept per client for answering retransmissions: the reply to
  // client_seq s stays cached until the client's command s + window
  // executes. Clients never have anywhere near this many outstanding.
  static constexpr std::uint64_t kReplyCacheWindow = 1024;

  // Registers this replica's network endpoint. After all replicas of the
  // deployment are constructed, call connect() with every endpoint (in
  // replica-index order), then start().
  Replica(Transport& net, int index, std::unique_ptr<Service> service,
          Config config);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  NodeId endpoint() const { return endpoint_; }
  int index() const { return index_; }

  void connect(const std::vector<NodeId>& replica_endpoints);
  void start();
  void stop();

  // Observability.
  std::uint64_t executed_count() const {
    return executed_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }
  // Samples the service digest at a scheduler quiescent point (a control
  // task, like state transfer), so the read cannot race with worker
  // execution. Blocks until the sample is taken; on a stopped replica it
  // reads directly (all threads are joined).
  std::uint64_t state_digest();
  bool is_leader() const {
    auto* b = broadcast_.load(std::memory_order_acquire);
    return b != nullptr && b->is_leader();
  }
  std::uint64_t view() const {
    auto* b = broadcast_.load(std::memory_order_acquire);
    return b != nullptr ? b->view() : 0;
  }
  const Service& service() const { return *service_; }
  double mean_graph_population() const;

  // Simulates a crash: the endpoint goes silent and all replica threads
  // stop. Used by fault-tolerance tests and the fault_tolerance example.
  void crash();

 private:
  // Scheduler work item: either a delivered batch or a control task (state
  // transfer serve/apply) that must run at a quiescent point, i.e., after
  // every previously delivered command has fully executed.
  struct Delivery {
    std::uint64_t seq = 0;
    std::vector<Command> batch;
    std::function<void()> control;
  };

  struct Metrics {
    Counter& batches;           // delivered batches scheduled
    Counter& batch_commands;    // commands in those batches (pre-dedup)
    Counter& dedup_hits;        // retransmissions dropped by at-most-once
    Counter& reply_cache_hits;  // retransmissions answered from the cache
    Counter& worker_exec_ns;    // total worker time executing commands
    Counter& worker_stall_ns;   // total worker time blocked in cos->get()
    Counter& dropped_deliveries;  // push on a closed queue while running_
    Gauge& queue_depth;         // delivered_ hand-off queue occupancy
    HistogramMetric& batch_size;
  };

  void handle_message(NodeId from, const MessagePtr& m);
  void on_request(NodeId from, const RequestMsg& m);
  // Audited hand-off to the scheduler queue: counts/logs drops that happen
  // while the replica still claims to be running (see replica.cc).
  bool push_delivery(Delivery d, const char* what);
  void scheduler_loop();
  void worker_loop();
  void execute_and_reply(const Command& c);

  // State transfer (all run on the scheduler thread at quiescence).
  void wait_quiescent();
  std::vector<std::uint8_t> encode_checkpoint();
  bool decode_checkpoint(std::span<const std::uint8_t> bytes);
  void serve_state_request(NodeId peer);
  void apply_state_response(const StateResponseMsg& m);

  Transport& net_;
  const int index_;
  const Config config_;
  std::unique_ptr<Service> service_;  // NOLINT(psmr-guarded-by-coverage) set in ctor, before any thread starts
  NodeId endpoint_ = -1;  // NOLINT(psmr-guarded-by-coverage) written in connect() before threads start

  // connect() constructs the engine and publishes it through the atomic
  // pointer; on a real transport a peer's message can reach the dispatcher
  // thread before (or during) connect(), so the handoff must be a release/
  // acquire pair, not a bare unique_ptr assignment.
  std::unique_ptr<SequencedBroadcast> broadcast_owner_;  // NOLINT(psmr-guarded-by-coverage) ownership only; access goes through the atomic broadcast_
  std::atomic<SequencedBroadcast*> broadcast_{nullptr};
  BlockingQueue<Delivery> delivered_;

  std::unique_ptr<Cos> cos_;  // NOLINT(psmr-guarded-by-coverage) created in connect() before worker threads start
  std::thread scheduler_;
  std::vector<std::thread> workers_;  // NOLINT(psmr-guarded-by-coverage) created/joined by the owner thread only
  std::atomic<bool> running_{false};

  // Per-client at-most-once state. clients_mu_ is held across net_.send on
  // the reply-cache hit path (its rank precedes the transport rank) and is
  // never held together with COS locks; every hold is O(1).
  //
  // The reply cache is a ring allocated on the client's first reply: the
  // reply to client_seq s lives at index s % kReplyCacheWindow and is
  // served only while the stored client_seq still matches. client_seq 0
  // marks an empty entry — the at-most-once filter never executes it.
  struct CachedReply {
    std::uint64_t client_seq = 0;
    std::uint64_t value = 0;
    bool ok = false;
  };
  // The at-most-once window covers the kReplyCacheWindow seqs ending at
  // max_inserted_seq: bit s % kReplyCacheWindow of `inserted` is set iff
  // seq s in the window was inserted. It depends only on delivery order, so
  // every replica keeps the same window.
  struct ClientState {
    // Marks `seq` inserted and returns true unless it was inserted already
    // or is older than the window (or is 0).
    bool admit(std::uint64_t seq);

    std::uint64_t max_inserted_seq = 0;
    std::array<std::uint64_t, kReplyCacheWindow / 64> inserted{};
    std::unique_ptr<CachedReply[]> replies;
  };
  mutable RankedMutex<lock_rank::kReplicaClients> clients_mu_;
  std::unordered_map<std::uint64_t, ClientState> clients_
      PSMR_GUARDED_BY(clients_mu_);

  std::atomic<std::uint64_t> executed_{0};
  std::uint64_t scheduled_count_ = 0;  // commands handed off; scheduler only  // NOLINT(psmr-guarded-by-coverage) scheduler thread only
  std::atomic<std::uint64_t> population_sum_{0};
  std::atomic<std::uint64_t> population_samples_{0};
  std::uint64_t next_command_id_ = 1;      // scheduler thread only  // NOLINT(psmr-guarded-by-coverage) scheduler thread only
  std::uint64_t last_processed_seq_ = 0;   // scheduler thread only  // NOLINT(psmr-guarded-by-coverage) scheduler thread only
  std::atomic<std::uint64_t> state_transfers_{0};  // observability
  const Metrics metrics_;

 public:
  // Number of state-transfer checkpoints this replica installed.
  std::uint64_t state_transfers() const {
    return state_transfers_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }
};

}  // namespace psmr
