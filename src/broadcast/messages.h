// Wire messages of the sequenced atomic broadcast (see
// sequenced_broadcast.h for the protocol) and of the client/replica
// interaction.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cos/command.h"
#include "net/message.h"

namespace psmr {

namespace msg {
inline constexpr int kRequest = 1;        // client -> replicas
inline constexpr int kReply = 2;          // replica -> client
inline constexpr int kAccept = 3;         // leader -> replicas
inline constexpr int kAccepted = 4;       // replica -> leader
inline constexpr int kCommit = 5;         // leader -> replicas
inline constexpr int kHeartbeat = 6;      // leader -> replicas
inline constexpr int kViewChange = 7;     // replica -> new leader
inline constexpr int kNewView = 8;        // new leader -> replicas
inline constexpr int kStateRequest = 9;   // lagging replica -> peer
inline constexpr int kStateResponse = 10; // peer -> lagging replica
}  // namespace msg

struct RequestMsg final : Message {
  explicit RequestMsg(std::vector<Command> cmds)
      : Message(msg::kRequest), commands(std::move(cmds)) {}
  std::vector<Command> commands;
};

struct ReplyMsg final : Message {
  ReplyMsg(std::uint64_t seq, std::uint64_t val, bool okay)
      : Message(msg::kReply), client_seq(seq), value(val), ok(okay) {}
  std::uint64_t client_seq;
  std::uint64_t value;
  bool ok;
};

struct AcceptMsg final : Message {
  AcceptMsg(std::uint64_t v, std::uint64_t s, std::vector<Command> b)
      : Message(msg::kAccept), view(v), seq(s), batch(std::move(b)) {}
  std::uint64_t view;
  std::uint64_t seq;
  std::vector<Command> batch;
};

struct AcceptedMsg final : Message {
  AcceptedMsg(std::uint64_t v, std::uint64_t s, std::uint64_t d)
      : Message(msg::kAccepted), view(v), seq(s), delivered(d) {}
  std::uint64_t view;
  std::uint64_t seq;
  std::uint64_t delivered;  // sender's gap-free delivery watermark
};

struct CommitMsg final : Message {
  CommitMsg(std::uint64_t v, std::uint64_t s, std::uint64_t st)
      : Message(msg::kCommit), view(v), seq(s), stable(st) {}
  std::uint64_t view;
  std::uint64_t seq;
  std::uint64_t stable;  // every replica has delivered every slot <= this
};

struct HeartbeatMsg final : Message {
  HeartbeatMsg(std::uint64_t v, std::uint64_t committed, std::uint64_t st)
      : Message(msg::kHeartbeat),
        view(v),
        committed_up_to(committed),
        stable(st) {}
  std::uint64_t view;
  std::uint64_t committed_up_to;
  std::uint64_t stable;  // as in CommitMsg
};

// A replica's knowledge of one log slot, shipped during view changes.
struct LogEntrySummary {
  std::uint64_t seq;
  std::uint64_t view;  // view in which the entry was accepted
  std::vector<Command> batch;
};

struct ViewChangeMsg final : Message {
  ViewChangeMsg(std::uint64_t nv, std::vector<LogEntrySummary> log,
                std::uint64_t delivered)
      : Message(msg::kViewChange),
        new_view(nv),
        accepted_log(std::move(log)),
        last_delivered(delivered) {}
  std::uint64_t new_view;
  std::vector<LogEntrySummary> accepted_log;
  std::uint64_t last_delivered;
};

struct NewViewMsg final : Message {
  NewViewMsg(std::uint64_t v, std::vector<LogEntrySummary> log)
      : Message(msg::kNewView), view(v), log(std::move(log)) {}
  std::uint64_t view;
  std::vector<LogEntrySummary> log;
};

// State transfer: a replica that detects it is lagging beyond the peers'
// log-retention window asks a peer for a checkpoint (see smr/replica.cc).
struct StateRequestMsg final : Message {
  explicit StateRequestMsg(std::uint64_t have)
      : Message(msg::kStateRequest), last_delivered(have) {}
  std::uint64_t last_delivered;
};

struct StateResponseMsg final : Message {
  StateResponseMsg(std::uint64_t seq, std::uint64_t v,
                   std::vector<std::uint8_t> snap)
      : Message(msg::kStateResponse),
        checkpoint_seq(seq),
        view(v),
        snapshot(std::move(snap)) {}
  std::uint64_t checkpoint_seq;  // everything <= this is in the snapshot
  std::uint64_t view;
  std::vector<std::uint8_t> snapshot;  // Service::snapshot() bytes
};

}  // namespace psmr
