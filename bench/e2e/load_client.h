// The benchmark's load generator: one transport endpoint that sends each
// command as a RequestMsg to every replica and stops the command's timer at
// its first ReplyMsg.
//
// SmrClient is not used: its resend machinery matters only under faults
// (this benchmark injects none) and its latency histogram cannot be reset
// after warm-up. LoadClient files each first reply into the slice of the
// measurement window it belongs to, in fixed-memory histograms.
//
// Threads: the caller's thread (which issues in open loop) and the
// transport dispatcher that runs the reply handler (which issues the next
// command in closed loop). Nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "bench.h"
#include "cos/command.h"
#include "net/transport.h"

namespace psmr::e2e {

class LoadClient {
 public:
  // A reply later than this, or none at all, fails the command.
  static constexpr std::uint64_t kDeadlineNs = 1'000'000'000;

  // Raw record of a sampled command (see sampled() in bench.h).
  struct Sample {
    std::uint64_t seq = 0;
    std::uint64_t start_ns = 0;  // issue time (closed) or due time (open)
    std::uint64_t sent_ns = 0;   // when send() to the replicas began
    std::uint64_t reply_ns = 0;  // first reply's arrival
    NodeId replica = -1;         // sender of the first reply
  };

  // `pool` is the pre-generated command stream; command seq s (from 1) is
  // pool[(s - 1) % pool.size()] with client = this endpoint, client_seq = s.
  // With `keep_sampled`, raw records of sampled commands are kept too.
  LoadClient(Transport& net, std::vector<NodeId> replicas,
             const std::vector<Command>& pool, bool keep_sampled);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  // Issues one command and waits for its first reply; false on timeout.
  bool probe(std::uint64_t timeout_ms);

  // Closed loop: issues `outstanding` commands now and one more at each
  // first reply, until stop().
  void start_closed(int outstanding);

  // Open loop: issues the next command, timed from `due_ns`.
  void issue_open(std::uint64_t due_ns) { issue(due_ns); }

  void stop() { issuing_.store(false, std::memory_order_release); }

  // Waits until every issued command has a reply; false on timeout.
  bool drain(std::uint64_t timeout_ms);

  // From now on, files each first reply's latency under the window slice
  // holding its reply time, or its start time with `by_start` (open loop:
  // a command belongs to the phase it was due in), starting from empty
  // histograms.
  void record_window(std::uint64_t t0_ns, std::uint64_t slice_ns,
                     bool by_start);

  std::uint64_t issued() const {
    return next_seq_.load(std::memory_order_acquire) - 1;
  }
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  // Commands whose first reply came later than kDeadlineNs.
  std::uint64_t late() const { return late_.load(std::memory_order_acquire); }

  // The window being recorded, as far as replies have arrived.
  SliceLatency window_latency() const;
  // Read this only after the transport has shut down.
  const std::deque<Sample>& sampled_records() const { return sampled_; }

 private:
  // Far more than ever outstanding at once (64 in closed loop, a few
  // hundred in open loop), so a record is not reused while its command can
  // still be answered within the deadline.
  static constexpr std::size_t kRing = std::size_t{1} << 16;

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> sent_ns{0};
    std::atomic<bool> replied{false};
  };

  void issue(std::uint64_t start_ns);
  void on_message(NodeId from, const MessagePtr& m);

  Transport& net_;
  const std::vector<NodeId> replicas_;
  const std::vector<Command>& pool_;
  const bool keep_sampled_;
  std::unique_ptr<Slot[]> ring_;
  NodeId endpoint_ = -1;
  std::mutex issue_mu_;  // serializes issue()
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> late_{0};
  std::atomic<bool> issuing_{false};
  // The window being recorded (window_t0_ == 0: none). The caller switches
  // windows while the dispatcher records.
  mutable std::mutex window_mu_;
  std::uint64_t window_t0_ = 0;
  std::uint64_t slice_ns_ = 1;
  bool by_start_ = false;
  SliceLatency window_latency_;
  std::deque<Sample> sampled_;  // dispatcher thread only, until shutdown
};

}  // namespace psmr::e2e
