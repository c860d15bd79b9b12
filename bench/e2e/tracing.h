// Stage tracing measured from outside the program, through the two seams a
// Deployment accepts: a Transport decorator (Deployment::Config::
// transport_factory) and a Service decorator (the ServiceFactory).
//
// Stage spans are kept for sampled commands (bench.h), keyed by client_seq
// (the benchmark runs one client). The transport decorator places each
// stamp by message type:
//   RequestMsg handled by the leader  -> leader receipt
//   AcceptMsg sent by the leader      -> ACCEPT sent (per batch command)
//   CommitMsg sent by the leader      -> COMMIT sent (per ACCEPTed slot)
// and the service decorator stamps execute start/end per replica. The load
// client supplies send and first-reply times, so a command's spans are
//   request    client send   -> leader receipt
//   batch_wait leader receipt -> ACCEPT sent            (n > 1 only)
//   commit     ACCEPT sent    -> COMMIT sent            (n > 1 only)
//   schedule   COMMIT sent (leader receipt when n = 1)
//                             -> execute starts on the first-answering replica
//   exec       execute start  -> execute end
//   reply      execute end    -> first reply at the client
// which tile the command's latency from send to first reply.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "app/service.h"
#include "bench.h"
#include "net/transport.h"

namespace psmr::e2e {

inline constexpr int kMaxReplicas = 3;

class StageTracer {
 public:
  struct Stamps {
    std::uint64_t leader_recv = 0;
    std::uint64_t accept_sent = 0;
    std::uint64_t commit_sent = 0;
    std::array<std::uint64_t, kMaxReplicas> exec_start{};
    std::array<std::uint64_t, kMaxReplicas> exec_end{};
  };

  // Commands with client_seq beyond this are not checked for duplicate
  // execution; the check fails loudly instead of passing silently.
  static constexpr std::uint64_t kMaxCheckedSeq = std::uint64_t{1} << 23;

  // At most kMaxReplicas replicas.
  StageTracer(int replicas, NodeId leader);

  int replicas() const { return replicas_; }

  // Stamps and transport samples are recorded only while enabled (the
  // measurement window).
  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Around every send; before_send decides whether it is a sampled one.
  bool before_send(NodeId to, const Message& m);
  void after_send(NodeId from, NodeId to, const Message& m, bool sampled_send,
                  std::uint64_t t0, std::uint64_t t1);
  void on_deliver(NodeId to, const MessagePtr& m, std::uint64_t t);
  void on_handled(NodeId to, std::uint64_t t0, std::uint64_t t1);
  void on_execute(int replica, const Command& c, std::uint64_t t0,
                  std::uint64_t t1);

  // Read after the run (transport shut down).
  std::map<std::uint64_t, Stamps> stamps() const;
  std::uint64_t sends() const {
    return sends_.load(std::memory_order_relaxed);
  }
  Samples send_ns() const;
  Samples transit_ns() const;
  Samples handler_ns() const;
  Samples exec_ns() const;
  std::uint64_t duplicate_executions() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  std::uint64_t unchecked_executions() const {
    return unchecked_.load(std::memory_order_relaxed);
  }

 private:
  Stamps& stamps_locked(std::uint64_t seq) { return stamps_[seq]; }

  const int replicas_;
  const NodeId leader_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> unchecked_{0};
  // One bit per (replica, client_seq): set on execute, so a second
  // execution of the same command on one replica is caught.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> executed_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Stamps> stamps_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
      accepted_slots_;  // broadcast seq -> sampled client_seqs in its batch
  std::map<std::pair<const Message*, NodeId>, std::uint64_t> in_transit_;
  Samples send_ns_;
  Samples transit_ns_;
  Samples handler_ns_;
  Samples exec_ns_;
};

// Transport decorator: times every send, samples transit and replica
// handler time, and feeds the tracer's stage stamps. Forwards everything
// else, so ids are still assigned sequentially from 0.
class TracingTransport final : public Transport {
 public:
  TracingTransport(std::unique_ptr<Transport> inner, StageTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  NodeId add_endpoint(Handler handler) override;
  void send(NodeId from, NodeId to, MessagePtr msg) override;
  void remove_endpoint(NodeId node) override { inner_->remove_endpoint(node); }
  void shutdown() override { inner_->shutdown(); }
  std::uint64_t messages_delivered() const override {
    return inner_->messages_delivered();
  }
  std::uint64_t messages_dropped() const override {
    return inner_->messages_dropped();
  }
  bool supports_fault_injection() const override {
    return inner_->supports_fault_injection();
  }
  void set_link(NodeId a, NodeId b, bool up) override {
    inner_->set_link(a, b, up);
  }
  void crash(NodeId node) override { inner_->crash(node); }
  bool crashed(NodeId node) const override { return inner_->crashed(node); }

 private:
  std::unique_ptr<Transport> inner_;
  StageTracer& tracer_;
};

// Service decorator: stamps execute start/end of sampled commands and
// checks at-most-once execution of every command on its replica.
class TracingService final : public Service {
 public:
  TracingService(std::unique_ptr<Service> inner, StageTracer& tracer,
                 int replica)
      : inner_(std::move(inner)), tracer_(tracer), replica_(replica) {}

  Response execute(const Command& c) override;
  ConflictFn conflict() const override { return inner_->conflict(); }
  ClassMapFn class_map() const override { return inner_->class_map(); }
  std::uint64_t state_digest() const override {
    return inner_->state_digest();
  }
  std::vector<std::uint8_t> snapshot() const override {
    return inner_->snapshot();
  }
  bool restore(std::span<const std::uint8_t> bytes) override {
    return inner_->restore(bytes);
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Service> inner_;
  StageTracer& tracer_;
  const int replica_;
};

}  // namespace psmr::e2e
