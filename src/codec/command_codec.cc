#include "codec/command_codec.h"

#include <algorithm>

namespace psmr {

void encode_command(const Command& c, ByteWriter& out) {
  out.put_varint(c.id);
  out.put_varint(c.client);
  out.put_varint(c.client_seq);
  out.put_u16(c.op);
  out.put_u8(static_cast<std::uint8_t>(c.mode));
  // Packed keys byte: low nibble = nkeys (conflict keys), high nibble =
  // total keys encoded. Slots past nkeys are service payload (e.g. the KV
  // user key); trailing zero slots are elided.
  std::uint8_t total = static_cast<std::uint8_t>(c.keys.size());
  while (total > c.nkeys && c.keys[total - 1] == 0) --total;
  out.put_u8(static_cast<std::uint8_t>(c.nkeys | (total << 4)));
  for (std::uint8_t i = 0; i < total; ++i) out.put_varint(c.keys[i]);
  out.put_varint(c.arg);
}

bool decode_command(ByteReader& in, Command* out) {
  Command c;
  c.id = in.get_varint();
  c.client = in.get_varint();
  c.client_seq = in.get_varint();
  c.op = in.get_u16();
  const std::uint8_t mode = in.get_u8();
  if (mode > 1) return false;
  c.mode = static_cast<AccessMode>(mode);
  const std::uint8_t packed = in.get_u8();
  c.nkeys = packed & 0x0f;
  const std::uint8_t total = packed >> 4;
  if (c.nkeys > c.keys.size() || total > c.keys.size() || total < c.nkeys) {
    return false;
  }
  for (std::uint8_t i = 0; i < total; ++i) c.keys[i] = in.get_varint();
  // Re-establish the Command invariant locally rather than trusting the
  // peer: conflict keys sorted ascending.
  std::sort(c.keys.begin(), c.keys.begin() + c.nkeys);
  c.arg = in.get_varint();
  if (!in.ok()) return false;
  *out = c;
  return true;
}

void encode_commands(const std::vector<Command>& cmds, ByteWriter& out) {
  out.put_varint(cmds.size());
  for (const Command& c : cmds) encode_command(c, out);
}

bool decode_commands(ByteReader& in, std::vector<Command>* out) {
  const std::uint64_t n = in.get_varint();
  // A command encodes to >= 8 bytes; reject length prefixes that could not
  // possibly fit (defends against allocation bombs from corrupt input).
  if (!in.ok() || n > in.remaining()) return false;
  out->clear();
  out->reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Command c;
    if (!decode_command(in, &c)) return false;
    out->push_back(c);
  }
  return true;
}

namespace {

void encode_log_entries(const std::vector<LogEntrySummary>& entries,
                        ByteWriter& out) {
  out.put_varint(entries.size());
  for (const auto& entry : entries) {
    out.put_varint(entry.seq);
    out.put_varint(entry.view);
    encode_commands(entry.batch, out);
  }
}

bool decode_log_entries(ByteReader& in, std::vector<LogEntrySummary>* out) {
  const std::uint64_t n = in.get_varint();
  if (!in.ok() || n > in.remaining()) return false;
  out->clear();
  out->reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    LogEntrySummary entry;
    entry.seq = in.get_varint();
    entry.view = in.get_varint();
    if (!decode_commands(in, &entry.batch)) return false;
    out->push_back(std::move(entry));
  }
  return in.ok();
}

}  // namespace

void encode_message(const Message& m, ByteWriter& out) {
  out.put_u8(static_cast<std::uint8_t>(m.type));
  switch (m.type) {
    case msg::kRequest:
      encode_commands(static_cast<const RequestMsg&>(m).commands, out);
      break;
    case msg::kReply: {
      const auto& reply = static_cast<const ReplyMsg&>(m);
      out.put_varint(reply.client_seq);
      out.put_varint(reply.value);
      out.put_u8(reply.ok ? 1 : 0);
      break;
    }
    case msg::kAccept: {
      const auto& accept = static_cast<const AcceptMsg&>(m);
      out.put_varint(accept.view);
      out.put_varint(accept.seq);
      encode_commands(accept.batch, out);
      break;
    }
    case msg::kAccepted: {
      const auto& accepted = static_cast<const AcceptedMsg&>(m);
      out.put_varint(accepted.view);
      out.put_varint(accepted.seq);
      out.put_varint(accepted.delivered);
      break;
    }
    case msg::kCommit: {
      const auto& commit = static_cast<const CommitMsg&>(m);
      out.put_varint(commit.view);
      out.put_varint(commit.seq);
      out.put_varint(commit.stable);
      break;
    }
    case msg::kHeartbeat: {
      const auto& hb = static_cast<const HeartbeatMsg&>(m);
      out.put_varint(hb.view);
      out.put_varint(hb.committed_up_to);
      out.put_varint(hb.stable);
      break;
    }
    case msg::kViewChange: {
      const auto& vc = static_cast<const ViewChangeMsg&>(m);
      out.put_varint(vc.new_view);
      encode_log_entries(vc.accepted_log, out);
      out.put_varint(vc.last_delivered);
      break;
    }
    case msg::kNewView: {
      const auto& nv = static_cast<const NewViewMsg&>(m);
      out.put_varint(nv.view);
      encode_log_entries(nv.log, out);
      break;
    }
    case msg::kStateRequest:
      out.put_varint(static_cast<const StateRequestMsg&>(m).last_delivered);
      break;
    case msg::kStateResponse: {
      const auto& sr = static_cast<const StateResponseMsg&>(m);
      out.put_varint(sr.checkpoint_seq);
      out.put_varint(sr.view);
      out.put_bytes(sr.snapshot);
      break;
    }
    default:
      break;
  }
}

MessagePtr decode_message(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const std::uint8_t type = in.get_u8();
  if (!in.ok()) return nullptr;
  switch (type) {
    case msg::kRequest: {
      std::vector<Command> cmds;
      if (!decode_commands(in, &cmds)) return nullptr;
      return make_message<RequestMsg>(std::move(cmds));
    }
    case msg::kReply: {
      const std::uint64_t seq = in.get_varint();
      const std::uint64_t value = in.get_varint();
      const std::uint8_t ok = in.get_u8();
      if (!in.ok() || ok > 1) return nullptr;
      return make_message<ReplyMsg>(seq, value, ok == 1);
    }
    case msg::kAccept: {
      const std::uint64_t view = in.get_varint();
      const std::uint64_t seq = in.get_varint();
      std::vector<Command> batch;
      if (!decode_commands(in, &batch)) return nullptr;
      return make_message<AcceptMsg>(view, seq, std::move(batch));
    }
    case msg::kAccepted: {
      const std::uint64_t view = in.get_varint();
      const std::uint64_t seq = in.get_varint();
      const std::uint64_t delivered = in.get_varint();
      if (!in.ok()) return nullptr;
      return make_message<AcceptedMsg>(view, seq, delivered);
    }
    case msg::kCommit: {
      const std::uint64_t view = in.get_varint();
      const std::uint64_t seq = in.get_varint();
      const std::uint64_t stable = in.get_varint();
      if (!in.ok()) return nullptr;
      return make_message<CommitMsg>(view, seq, stable);
    }
    case msg::kHeartbeat: {
      const std::uint64_t view = in.get_varint();
      const std::uint64_t committed = in.get_varint();
      const std::uint64_t stable = in.get_varint();
      if (!in.ok()) return nullptr;
      return make_message<HeartbeatMsg>(view, committed, stable);
    }
    case msg::kViewChange: {
      const std::uint64_t new_view = in.get_varint();
      std::vector<LogEntrySummary> log;
      if (!decode_log_entries(in, &log)) return nullptr;
      const std::uint64_t delivered = in.get_varint();
      if (!in.ok()) return nullptr;
      return make_message<ViewChangeMsg>(new_view, std::move(log), delivered);
    }
    case msg::kNewView: {
      const std::uint64_t view = in.get_varint();
      std::vector<LogEntrySummary> log;
      if (!decode_log_entries(in, &log)) return nullptr;
      return make_message<NewViewMsg>(view, std::move(log));
    }
    case msg::kStateRequest: {
      const std::uint64_t have = in.get_varint();
      if (!in.ok()) return nullptr;
      return make_message<StateRequestMsg>(have);
    }
    case msg::kStateResponse: {
      const std::uint64_t seq = in.get_varint();
      const std::uint64_t view = in.get_varint();
      std::vector<std::uint8_t> snapshot = in.get_bytes();
      if (!in.ok()) return nullptr;
      return make_message<StateResponseMsg>(seq, view, std::move(snapshot));
    }
    default:
      return nullptr;
  }
}

}  // namespace psmr
