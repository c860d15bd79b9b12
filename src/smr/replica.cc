#include "smr/replica.h"

#include <cstdio>
#include <future>
#include <thread>

#include "codec/codec.h"

namespace psmr {

Replica::Replica(Transport& net, int index, std::unique_ptr<Service> service,
                 Config config)
    : net_(net),
      index_(index),
      config_(config),
      service_(std::move(service)),
      metrics_{MetricsRegistry::global().counter("scheduler.batches"),
               MetricsRegistry::global().counter("scheduler.batch_commands"),
               MetricsRegistry::global().counter("scheduler.dedup_hits"),
               MetricsRegistry::global().counter("replica.reply_cache_hits"),
               MetricsRegistry::global().counter("worker.exec_ns"),
               MetricsRegistry::global().counter("worker.stall_ns"),
               MetricsRegistry::global().counter("scheduler.dropped_deliveries"),
               MetricsRegistry::global().gauge("scheduler.queue_depth"),
               MetricsRegistry::global().histogram("scheduler.batch_size")} {
  endpoint_ = net_.add_endpoint(
      [this](NodeId from, MessagePtr m) { handle_message(from, std::move(m)); });
  CosOptions cos_options = config_.cos;
  cos_options.conflict = service_->conflict();
  cos_ = make_scheduler(config_.policy, cos_options, service_->class_map(),
                        config_.workers);
}

// All delivery-path hand-offs to the scheduler queue go through here: a
// false return from BlockingQueue::push means the item was *dropped* (the
// queue only rejects after close()). By the time stop() closes the queue it
// has already cleared running_ — and that store happens-before the push's
// failed locked read — so a rejection observed while running_ is still set
// is a genuine lost delivery, not a shutdown race. Make that loud instead
// of letting it masquerade as a lost command.
bool Replica::push_delivery(Delivery d, const char* what) {
  if (delivered_.push(std::move(d))) {
    metrics_.queue_depth.add(1);
    return true;
  }
  if (running_.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; ordering given by the queue mutex (see above)
    metrics_.dropped_deliveries.inc();
    std::fprintf(stderr,
                 "psmr replica %d: dropped %s on a closed scheduler queue "
                 "while running\n",
                 index_, what);
  }
  return false;
}

Replica::~Replica() {
  // Deregister first: once remove_endpoint returns, no handle_message can
  // be running or start, so stop() tears down state no handler touches.
  net_.remove_endpoint(endpoint_);
  stop();
}

void Replica::connect(const std::vector<NodeId>& replica_endpoints) {
  broadcast_owner_ = std::make_unique<SequencedBroadcast>(
      net_, endpoint_, index_, replica_endpoints, config_.broadcast,
      [this](std::uint64_t seq, const std::vector<Command>& batch) {
        push_delivery({seq, batch, nullptr}, "delivered batch");
      });
  // Lagging beyond the peers' log retention: ask the peer that showed us
  // the gap for a checkpoint.
  // Careful: the gap handler runs with the broadcast engine's mutex held,
  // so it must not call back into the engine (hence the watermark is passed
  // in rather than queried).
  broadcast_owner_->set_gap_handler(
      [this](NodeId peer, std::uint64_t delivered) {
        net_.send(endpoint_, peer, make_message<StateRequestMsg>(delivered));
      });
  // Publish only after the engine is fully wired: dispatcher threads that
  // observe the pointer must see a complete object.
  broadcast_.store(broadcast_owner_.get(), std::memory_order_release);
}

void Replica::start() {
  if (running_.exchange(true)) return;
  broadcast_.load(std::memory_order_acquire)->start();
  scheduler_ = std::thread([this] { scheduler_loop(); });
  if (cos_ != nullptr) {
    for (int w = 0; w < config_.workers; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

void Replica::stop() {
  if (!running_.exchange(false)) return;
  if (auto* b = broadcast_.load(std::memory_order_acquire)) b->stop();
  delivered_.close();
  if (cos_) cos_->close();
  if (scheduler_.joinable()) scheduler_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // The scheduler may have exited (COS closed) with control tasks still
  // queued; run them here so their waiters (e.g. a blocked state_digest)
  // unblock. All replica threads are joined, so this is race-free.
  while (auto leftover = delivered_.pop()) {
    metrics_.queue_depth.sub(1);
    if (leftover->control) leftover->control();
  }
}

void Replica::crash() {
  net_.crash(endpoint_);
  stop();
}

void Replica::handle_message(NodeId from, const MessagePtr& m) {
  switch (m->type) {
    case msg::kRequest:
      on_request(from, message_as<RequestMsg>(m));
      break;
    case msg::kReply:
      break;  // replicas do not consume replies
    case msg::kStateRequest:
      // Serve at the next quiescent point of the scheduler.
      push_delivery({0, {}, [this, from] { serve_state_request(from); }},
                    "state request");
      break;
    case msg::kStateResponse: {
      auto keep_alive = m;  // control task outlives this handler frame
      push_delivery({0,
                     {},
                     [this, keep_alive] {
                       apply_state_response(
                           message_as<StateResponseMsg>(keep_alive));
                     }},
                    "state response");
      break;
    }
    default:
      if (auto* b = broadcast_.load(std::memory_order_acquire)) {
        b->handle(from, m);
      }
      break;
  }
}

void Replica::on_request(NodeId from, const RequestMsg& m) {
  // Answer retransmissions of already-executed commands from the cache and
  // forward the rest into the ordering protocol (effective only if leader).
  std::vector<Command> fresh;
  fresh.reserve(m.commands.size());
  {
    MutexLock lock(clients_mu_);
    for (Command c : m.commands) {
      c.client = static_cast<std::uint64_t>(from);  // authoritative source
      auto it = clients_.find(c.client);
      if (it != clients_.end() && it->second.replies && c.client_seq != 0) {
        const CachedReply& cached =
            it->second.replies[c.client_seq % kReplyCacheWindow];
        if (cached.client_seq == c.client_seq) {
          metrics_.reply_cache_hits.inc();
          net_.send(endpoint_, from,
                    make_message<ReplyMsg>(cached.client_seq, cached.value,
                                           cached.ok));
          continue;
        }
      }
      fresh.push_back(c);
    }
  }
  auto* b = broadcast_.load(std::memory_order_acquire);
  if (!fresh.empty() && b != nullptr) b->submit(fresh);
}

void Replica::scheduler_loop() {
  while (auto delivery = delivered_.pop()) {
    metrics_.queue_depth.sub(1);
    if (delivery->control) {
      wait_quiescent();
      delivery->control();
      continue;
    }
    last_processed_seq_ = delivery->seq;
    metrics_.batches.inc();
    metrics_.batch_commands.inc(delivery->batch.size());
    metrics_.batch_size.record(delivery->batch.size());
    // At-most-once filtering (drop retransmissions / view-change
    // re-proposals), then hand the surviving commands to the COS as one
    // batch — the lock-free DAG takes its `space` permits once per chunk.
    std::vector<Command> fresh;
    fresh.reserve(delivery->batch.size());
    {
      MutexLock lock(clients_mu_);
      for (const Command& c : delivery->batch) {
        if (c.client != 0 && !clients_[c.client].admit(c.client_seq)) {
          metrics_.dedup_hits.inc();
          continue;
        }
        fresh.push_back(c);
        fresh.back().id = next_command_id_++;
      }
    }
    scheduled_count_ += fresh.size();
    if (cos_ == nullptr) {  // sequential policy
      for (const Command& c : fresh) execute_and_reply(c);
    } else if (!fresh.empty()) {
      if (!cos_->insert_batch(fresh)) return;  // closed
      population_sum_.fetch_add(cos_->approx_size(),
                                std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      population_samples_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
    }
  }
}

bool Replica::ClientState::admit(std::uint64_t seq) {
  if (seq == 0 || seq + kReplyCacheWindow <= max_inserted_seq) return false;
  const auto word = [](std::uint64_t s) { return s % kReplyCacheWindow / 64; };
  const auto mask = [](std::uint64_t s) { return std::uint64_t{1} << s % 64; };
  if (seq > max_inserted_seq) {
    // Slide the window up to seq: the seqs it leaves free their bits for
    // the seqs it enters.
    if (seq - max_inserted_seq >= kReplyCacheWindow) {
      inserted.fill(0);
    } else {
      for (std::uint64_t s = max_inserted_seq + 1; s < seq; ++s) {
        inserted[word(s)] &= ~mask(s);
      }
    }
    max_inserted_seq = seq;
  } else if (inserted[word(seq)] & mask(seq)) {
    return false;
  }
  inserted[word(seq)] |= mask(seq);
  return true;
}

void Replica::worker_loop() {
  while (true) {
    const std::uint64_t t0 = metrics_now_ns();
    CosHandle h = cos_->get();
    if (!h) return;  // closed
    const std::uint64_t t1 = metrics_now_ns();
    metrics_.worker_stall_ns.inc(t1 - t0);
    execute_and_reply(*h.cmd);
    metrics_.worker_exec_ns.inc(metrics_now_ns() - t1);
    cos_->remove(h);
  }
}

void Replica::execute_and_reply(const Command& c) {
  const Response r = service_->execute(c);
  // Release so that wait_quiescent's acquire load of executed_ makes this
  // thread's service-state writes visible to the scheduler.
  executed_.fetch_add(1, std::memory_order_release);
  if (c.client == 0) return;  // internally generated (tests)
  {
    MutexLock lock(clients_mu_);
    auto& state = clients_[c.client];
    if (!state.replies) {
      state.replies = std::make_unique<CachedReply[]>(kReplyCacheWindow);
    }
    // Workers finish out of order: never let an older reply evict a newer
    // one that shares its entry.
    CachedReply& entry = state.replies[c.client_seq % kReplyCacheWindow];
    if (entry.client_seq < c.client_seq) entry = {c.client_seq, r.value, r.ok};
  }
  net_.send(endpoint_, static_cast<NodeId>(c.client),
            make_message<ReplyMsg>(r.client_seq, r.value, r.ok));
}

// Spins until every command handed off so far has been executed. Only
// called from the scheduler thread, so nothing new is being scheduled while
// we wait. Workers bump executed_ with release right after the service
// call, so once the acquire load reaches scheduled_count_ every worker's
// service-state writes happen-before this return — the service may be read
// without synchronization until the scheduler hands off more work.
void Replica::wait_quiescent() {
  while (executed_.load(std::memory_order_acquire) < scheduled_count_ &&
         running_.load(std::memory_order_relaxed)) {  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
    std::this_thread::yield();
  }
}

std::uint64_t Replica::state_digest() {
  auto sample = std::make_shared<std::promise<std::uint64_t>>();
  auto result = sample->get_future();
  const bool queued = push_delivery(
      {0, {}, [this, sample] { sample->set_value(service_->state_digest()); }},
      "state-digest control task");
  if (!queued) {
    // Queue closed: the replica is stopped and all its threads are joined,
    // so a direct read cannot race.
    return service_->state_digest();
  }
  return result.get();
}

// Checkpoint = service snapshot + the per-client at-most-once windows (so a
// restored replica keeps rejecting retransmissions of commands the
// checkpoint already contains, and still admits the seqs it does not).
// Reply caches are intentionally not shipped: the peers that produced the
// checkpoint still hold theirs, and the crash model guarantees a correct
// replica can answer retransmissions.
std::vector<std::uint8_t> Replica::encode_checkpoint() {
  ByteWriter out;
  const std::vector<std::uint8_t> service_bytes = service_->snapshot();
  out.put_bytes(service_bytes);
  MutexLock lock(clients_mu_);
  out.put_varint(clients_.size());
  for (const auto& [client, state] : clients_) {
    out.put_varint(client);
    out.put_varint(state.max_inserted_seq);
    for (const std::uint64_t word : state.inserted) out.put_u64(word);
  }
  return out.take();
}

bool Replica::decode_checkpoint(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const std::vector<std::uint8_t> service_bytes = in.get_bytes();
  if (!in.ok() || !service_->restore(service_bytes)) return false;
  const std::uint64_t clients = in.get_varint();
  if (!in.ok() || clients > in.remaining() + 1) return false;
  std::unordered_map<std::uint64_t, ClientState> table;
  for (std::uint64_t i = 0; i < clients; ++i) {
    ClientState& state = table[in.get_varint()];
    state.max_inserted_seq = in.get_varint();
    for (std::uint64_t& word : state.inserted) word = in.get_u64();
  }
  if (!in.ok()) return false;
  MutexLock lock(clients_mu_);
  clients_ = std::move(table);
  return true;
}

void Replica::serve_state_request(NodeId peer) {
  // Runs quiescent on the scheduler thread: every command up to
  // last_processed_seq_ is reflected in the service state.
  net_.send(endpoint_, peer,
            make_message<StateResponseMsg>(last_processed_seq_,
                                           view(),
                                           encode_checkpoint()));
}

void Replica::apply_state_response(const StateResponseMsg& m) {
  auto* b = broadcast_.load(std::memory_order_acquire);
  if (m.checkpoint_seq <= last_processed_seq_ ||
      m.checkpoint_seq <= b->last_delivered()) {
    return;  // stale or duplicate response
  }
  if (!decode_checkpoint(m.snapshot)) return;  // corrupt; try again later
  last_processed_seq_ = m.checkpoint_seq;
  b->install_checkpoint(m.checkpoint_seq);
  state_transfers_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
}

double Replica::mean_graph_population() const {
  const std::uint64_t samples =
      population_samples_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  if (samples == 0) return 0.0;
  return static_cast<double>(
             population_sum_.load(std::memory_order_relaxed)) /  // NOLINT(psmr-relaxed-order-audit) stat counter
         static_cast<double>(samples);
}

}  // namespace psmr
