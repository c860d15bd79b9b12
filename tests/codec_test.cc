// Codec tests: primitive round trips, varint edge values, command/message
// round trips for every protocol message, service snapshot/restore round
// trips, and robustness of every decoder against truncated and random
// input.
#include <algorithm>
#include <array>

#include <gtest/gtest.h>

#include "app/bank_service.h"
#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "codec/codec.h"
#include "codec/command_codec.h"
#include "common/rng.h"
#include "net/wire.h"

namespace psmr {
namespace {

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(Codec, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, VarintEdgeValues) {
  for (std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, (1ull << 32) - 1,
        1ull << 32, ~0ull}) {
    ByteWriter w;
    w.put_varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get_varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Codec, VarintCompactness) {
  ByteWriter w;
  w.put_varint(5);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(300);
  EXPECT_EQ(w.size(), 3u);  // 1 + 2
}

TEST(Codec, BytesAndStringsRoundTrip) {
  ByteWriter w;
  w.put_bytes(std::vector<std::uint8_t>{1, 2, 3});
  w.put_string("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_TRUE(r.ok());
}

TEST(Codec, ReaderFailsSafelyOnTruncation) {
  ByteWriter w;
  w.put_u64(1234567);
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    ByteReader r(std::span(w.bytes().data(), cut));
    r.get_u64();
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
  }
}

TEST(Codec, ReaderRejectsOversizedLengthPrefix) {
  ByteWriter w;
  w.put_varint(1 << 20);  // claims 1 MiB follows
  w.put_u8(0);
  ByteReader r(w.bytes());
  r.get_bytes();
  EXPECT_FALSE(r.ok());
}

TEST(Codec, RandomBytesNeverCrashReader) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    ByteReader r(junk);
    r.get_varint();
    r.get_bytes();
    r.get_u32();
    r.get_string();  // must not crash; ok() may be false
  }
}

// ---------------------------------------------------------------------------
// Command / message codecs
// ---------------------------------------------------------------------------

Command sample_command() {
  Command c = BankService::make_transfer(7, 9, 55);
  c.id = 1234;
  c.client = 42;
  c.client_seq = 777;
  return c;
}

void expect_commands_equal(const Command& a, const Command& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.client_seq, b.client_seq);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.nkeys, b.nkeys);
  for (std::uint8_t i = 0; i < a.nkeys; ++i) EXPECT_EQ(a.keys[i], b.keys[i]);
  EXPECT_EQ(a.arg, b.arg);
}

TEST(CommandCodec, RoundTrip) {
  const Command original = sample_command();
  ByteWriter w;
  encode_command(original, w);
  ByteReader r(w.bytes());
  Command decoded;
  ASSERT_TRUE(decode_command(r, &decoded));
  expect_commands_equal(original, decoded);
}

TEST(CommandCodec, BatchRoundTrip) {
  std::vector<Command> batch;
  for (int i = 0; i < 10; ++i) {
    Command c = i % 2 ? LinkedListService::make_add(i)
                      : LinkedListService::make_contains(i);
    c.id = static_cast<std::uint64_t>(i);
    batch.push_back(c);
  }
  ByteWriter w;
  encode_commands(batch, w);
  ByteReader r(w.bytes());
  std::vector<Command> decoded;
  ASSERT_TRUE(decode_commands(r, &decoded));
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_commands_equal(batch[i], decoded[i]);
  }
}

TEST(CommandCodec, RejectsInvalidMode) {
  ByteWriter w;
  encode_command(sample_command(), w);
  std::vector<std::uint8_t> bytes = w.take();
  // Byte layout: id(2B varint) client(1) client_seq(2) op(2) mode(1)...
  // Corrupt the mode byte to 7.
  bytes[7] = 7;
  ByteReader r(bytes);
  Command c;
  EXPECT_FALSE(decode_command(r, &c));
}

TEST(MessageCodec, AllMessageTypesRoundTrip) {
  std::vector<Command> batch{sample_command()};
  std::vector<LogEntrySummary> log{{5, 2, batch}, {6, 2, {}}};
  const std::vector<MessagePtr> originals = {
      make_message<RequestMsg>(batch),
      make_message<ReplyMsg>(9, 100, true),
      make_message<AcceptMsg>(3, 17, batch),
      make_message<AcceptedMsg>(3, 17, 300),
      make_message<CommitMsg>(3, 17, 70000),
      make_message<HeartbeatMsg>(4, 21, 19),
      make_message<ViewChangeMsg>(5, log, 4),
      make_message<NewViewMsg>(5, log),
      make_message<StateRequestMsg>(33),
      make_message<StateResponseMsg>(44, 5,
                                     std::vector<std::uint8_t>{9, 8, 7}),
  };
  for (const MessagePtr& original : originals) {
    ByteWriter w;
    encode_message(*original, w);
    MessagePtr decoded = decode_message(w.bytes());
    ASSERT_TRUE(decoded) << "type " << original->type;
    EXPECT_EQ(decoded->type, original->type);
  }
  // Spot-check payload fidelity on the interesting ones.
  {
    ByteWriter w;
    encode_message(*originals[2], w);
    const MessagePtr decoded = decode_message(w.bytes());
    const auto& accept = message_as<AcceptMsg>(decoded);
    EXPECT_EQ(accept.view, 3u);
    EXPECT_EQ(accept.seq, 17u);
    ASSERT_EQ(accept.batch.size(), 1u);
    expect_commands_equal(accept.batch[0], batch[0]);
  }
  {
    ByteWriter w;
    encode_message(*originals[3], w);
    const MessagePtr decoded = decode_message(w.bytes());
    const auto& accepted = message_as<AcceptedMsg>(decoded);
    EXPECT_EQ(accepted.seq, 17u);
    EXPECT_EQ(accepted.delivered, 300u);
  }
  {
    ByteWriter w;
    encode_message(*originals[4], w);
    const MessagePtr decoded = decode_message(w.bytes());
    const auto& commit = message_as<CommitMsg>(decoded);
    EXPECT_EQ(commit.seq, 17u);
    EXPECT_EQ(commit.stable, 70000u);
  }
  {
    ByteWriter w;
    encode_message(*originals[5], w);
    const MessagePtr decoded = decode_message(w.bytes());
    const auto& hb = message_as<HeartbeatMsg>(decoded);
    EXPECT_EQ(hb.committed_up_to, 21u);
    EXPECT_EQ(hb.stable, 19u);
  }
  {
    ByteWriter w;
    encode_message(*originals[6], w);
    const MessagePtr decoded = decode_message(w.bytes());
    const auto& vc = message_as<ViewChangeMsg>(decoded);
    EXPECT_EQ(vc.new_view, 5u);
    EXPECT_EQ(vc.last_delivered, 4u);
    ASSERT_EQ(vc.accepted_log.size(), 2u);
    EXPECT_EQ(vc.accepted_log[0].seq, 5u);
    EXPECT_EQ(vc.accepted_log[1].batch.size(), 0u);
  }
  {
    ByteWriter w;
    encode_message(*originals[9], w);
    const MessagePtr decoded = decode_message(w.bytes());
    const auto& sr = message_as<StateResponseMsg>(decoded);
    EXPECT_EQ(sr.checkpoint_seq, 44u);
    EXPECT_EQ(sr.snapshot, (std::vector<std::uint8_t>{9, 8, 7}));
  }
}

TEST(MessageCodec, WatermarkFieldsAreRequired) {
  // The stability watermarks are the last field of each message: a frame
  // cut anywhere, including inside the multi-byte watermark varint, must
  // be rejected rather than decoded with a default watermark.
  const std::vector<MessagePtr> messages = {
      make_message<AcceptedMsg>(1, 2, 300),
      make_message<CommitMsg>(1, 2, 70000),
      make_message<HeartbeatMsg>(1, 2, 300),
  };
  for (const MessagePtr& m : messages) {
    ByteWriter w;
    encode_message(*m, w);
    const auto& bytes = w.bytes();
    ASSERT_NE(decode_message(bytes), nullptr) << "type " << m->type;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_EQ(decode_message(std::span(bytes.data(), cut)), nullptr)
          << "type " << m->type << " cut at " << cut;
    }
  }
}

TEST(MessageCodec, UnknownTypeTagRejected) {
  std::vector<std::uint8_t> bytes{99, 0, 0};
  EXPECT_EQ(decode_message(bytes), nullptr);
}

TEST(MessageCodec, TruncatedAndRandomInputRejectedSafely) {
  ByteWriter w;
  encode_message(*make_message<AcceptMsg>(
                     1, 2, std::vector<Command>{sample_command()}),
                 w);
  const auto& bytes = w.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    decode_message(std::span(bytes.data(), cut));  // must not crash
  }
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(48) + 1);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    decode_message(junk);  // must not crash
  }
}

// ---------------------------------------------------------------------------
// Service snapshots
// ---------------------------------------------------------------------------

TEST(Snapshot, LinkedListRoundTrip) {
  LinkedListService a(100);
  a.execute(LinkedListService::make_add(5000));
  a.execute(LinkedListService::make_add(2));  // duplicate, no-op

  LinkedListService b(3);  // different initial state
  ASSERT_TRUE(b.restore(a.snapshot()));
  EXPECT_EQ(b.state_digest(), a.state_digest());
  EXPECT_EQ(b.size(), a.size());
  EXPECT_TRUE(b.execute(LinkedListService::make_contains(5000)).ok);
}

TEST(Snapshot, EmptyLinkedList) {
  LinkedListService a(0);
  LinkedListService b(10);
  ASSERT_TRUE(b.restore(a.snapshot()));
  EXPECT_EQ(b.size(), 0u);
}

TEST(Snapshot, KvRoundTrip) {
  KvService a(8);
  for (std::uint64_t k = 0; k < 200; ++k) {
    a.execute(a.make_put(k, k * 3));
  }
  KvService b(8);
  ASSERT_TRUE(b.restore(a.snapshot()));
  EXPECT_EQ(b.state_digest(), a.state_digest());
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.execute(b.make_get(7)).value, 21u);
}

TEST(Snapshot, BankRoundTrip) {
  BankService a(16, 500);
  a.execute(BankService::make_transfer(0, 1, 123));
  BankService b(2, 0);
  ASSERT_TRUE(b.restore(a.snapshot()));
  EXPECT_EQ(b.state_digest(), a.state_digest());
  EXPECT_EQ(b.total_balance(), a.total_balance());
  EXPECT_EQ(b.balance(1), 623u);
}

TEST(Snapshot, RestoreRejectsGarbage) {
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(32));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng());
    LinkedListService list(10);
    KvService kv;
    BankService bank(4, 1);
    // Must never crash; may succeed only for coincidentally valid input.
    list.restore(junk);
    kv.restore(junk);
    bank.restore(junk);
  }
}

// ---------------------------------------------------------------------------
// Golden bytes
//
// The exact on-wire byte sequences are pinned here. If any of these tests
// fails, the wire format changed: old and new binaries can no longer talk,
// and kWireVersion must be bumped. They also catch any regression to
// host-endian struct memcpy — the expectations below are little-endian
// byte-by-byte layouts and would differ on a big-endian host encoder.
// ---------------------------------------------------------------------------

TEST(GoldenBytes, FixedWidthIntegersAreLittleEndian) {
  ByteWriter w;
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  const std::vector<std::uint8_t> expected = {
      0xEF, 0xBE,                                      // u16
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
  };
  EXPECT_EQ(w.bytes(), expected);
}

TEST(GoldenBytes, CommandEncoding) {
  Command c;
  c.id = 1;
  c.client = 2;
  c.client_seq = 3;
  c.op = 0x1234;
  c.mode = AccessMode::kWrite;
  c.nkeys = 2;  // NOLINT(psmr-sorted-keys) hand-built command for byte-exact golden encoding
  c.keys[0] = 5;  // NOLINT(psmr-sorted-keys) hand-built command for byte-exact golden encoding
  c.keys[1] = 300;  // NOLINT(psmr-sorted-keys) hand-built command for byte-exact golden encoding
  c.arg = 128;
  ByteWriter w;
  encode_command(c, w);
  const std::vector<std::uint8_t> expected = {
      0x01, 0x02, 0x03,  // id, client, client_seq (varints)
      0x34, 0x12,        // op, u16 LE
      0x01,              // mode = kWrite
      0x22,              // packed keys: nkeys = 2, total encoded = 2
      0x05, 0xAC, 0x02,  // keys 5 and 300 (LEB128)
      0x80, 0x01,        // arg = 128 (LEB128)
  };
  EXPECT_EQ(w.bytes(), expected);
}

TEST(GoldenBytes, CommandEncodingCarriesPayloadKeys) {
  // KV-style command: one conflict key (the shard) plus a payload key slot
  // (the user key) that is not conflict-checked but must survive the wire.
  Command c;
  c.id = 1;
  c.op = 7;
  c.mode = AccessMode::kWrite;
  c.nkeys = 1;  // NOLINT(psmr-sorted-keys) hand-built command for byte-exact golden encoding
  c.keys[0] = 4;  // NOLINT(psmr-sorted-keys) hand-built command for byte-exact golden encoding
  c.keys[1] = 300;  // NOLINT(psmr-sorted-keys) hand-built command for byte-exact golden encoding
  c.arg = 9;
  ByteWriter w;
  encode_command(c, w);
  const std::vector<std::uint8_t> expected = {
      0x01, 0x00, 0x00,  // id, client, client_seq
      0x07, 0x00,        // op
      0x01,              // mode = kWrite
      0x21,              // packed keys: nkeys = 1, total encoded = 2
      0x04, 0xAC, 0x02,  // shard 4, payload key 300
      0x09,              // arg
  };
  EXPECT_EQ(w.bytes(), expected);

  ByteReader r(w.bytes());
  Command decoded;
  ASSERT_TRUE(decode_command(r, &decoded));
  EXPECT_EQ(decoded.keys[1], 300u);  // payload slot round-trips
}

TEST(CommandCodec, DecodeSortsConflictKeys) {
  // Decoders re-establish the sorted-keys invariant instead of trusting the
  // peer. Hand-craft an encoding with unsorted conflict keys.
  ByteWriter w;
  w.put_varint(1);  // id
  w.put_varint(0);  // client
  w.put_varint(0);  // client_seq
  w.put_u16(3);     // op
  w.put_u8(1);      // mode = kWrite
  w.put_u8(static_cast<std::uint8_t>(2 | (2 << 4)));  // nkeys=2, total=2
  w.put_varint(9);  // keys out of order
  w.put_varint(7);
  w.put_varint(0);  // arg
  ByteReader r(w.bytes());
  Command decoded;
  ASSERT_TRUE(decode_command(r, &decoded));
  EXPECT_EQ(decoded.keys[0], 7u);
  EXPECT_EQ(decoded.keys[1], 9u);
}

TEST(CommandCodec, AdversarialUnsortedKeysetsRoundTripSorted) {
  // Randomized version of the above, through the full encode/decode round
  // trip: a peer that violates the sorted-keys Command invariant (built here
  // by writing the fields directly, bypassing the sanctioned builders) must
  // come out of decode with the invariant re-established — same key
  // multiset, sorted ascending, payload slots untouched.
  Xoshiro256 rng(0xC0DEC0DEu);
  for (int trial = 0; trial < 500; ++trial) {
    Command c;
    c.id = trial;
    c.op = static_cast<std::uint16_t>(rng.below(1 << 16));
    c.mode = rng.below(2) == 0 ? AccessMode::kRead : AccessMode::kWrite;
    const std::uint8_t nkeys = static_cast<std::uint8_t>(rng.below(5));
    // Adversarial on purpose: unsorted conflict keys, never via a builder.
    c.nkeys = nkeys;  // NOLINT(psmr-sorted-keys) fuzz feeds unsorted keys on purpose
    for (std::size_t i = 0; i < c.keys.size(); ++i) {
      c.keys[i] = rng.below(64);  // NOLINT(psmr-sorted-keys) fuzz feeds unsorted keys on purpose
    }
    c.arg = rng();

    ByteWriter w;
    encode_command(c, w);
    ByteReader r(w.bytes());
    Command decoded;
    ASSERT_TRUE(decode_command(r, &decoded));

    ASSERT_EQ(decoded.nkeys, nkeys);
    std::array<std::uint64_t, 4> want = c.keys;
    std::sort(want.begin(), want.begin() + nkeys);
    for (std::uint8_t i = 0; i < nkeys; ++i) {
      EXPECT_EQ(decoded.keys[i], want[i]) << "trial " << trial;
    }
    for (std::size_t i = nkeys; i < c.keys.size(); ++i) {
      EXPECT_EQ(decoded.keys[i], c.keys[i])
          << "payload slot clobbered, trial " << trial;
    }
    debug_assert_sorted_keys(decoded);
    EXPECT_EQ(decoded.arg, c.arg);
    EXPECT_EQ(decoded.op, c.op);
    EXPECT_EQ(decoded.mode, c.mode);
  }
}

TEST(GoldenBytes, ReplyMessageEncoding) {
  ByteWriter w;
  encode_message(ReplyMsg(1, 300, true), w);
  const std::vector<std::uint8_t> expected = {
      0x02,        // type tag kReply
      0x01,        // client_seq
      0xAC, 0x02,  // value = 300
      0x01,        // ok
  };
  EXPECT_EQ(w.bytes(), expected);
}

TEST(GoldenBytes, BroadcastWatermarksFollowTheSlot) {
  ByteWriter accepted;
  encode_message(AcceptedMsg(1, 2, 300), accepted);
  EXPECT_EQ(accepted.bytes(), (std::vector<std::uint8_t>{
                                  0x04,        // type tag kAccepted
                                  0x01,        // view
                                  0x02,        // seq
                                  0xAC, 0x02,  // delivered = 300
                              }));
  ByteWriter commit;
  encode_message(CommitMsg(1, 2, 300), commit);
  EXPECT_EQ(commit.bytes(), (std::vector<std::uint8_t>{
                                0x05, 0x01, 0x02,  // kCommit, view, seq
                                0xAC, 0x02,        // stable = 300
                            }));
  ByteWriter heartbeat;
  encode_message(HeartbeatMsg(1, 2, 300), heartbeat);
  EXPECT_EQ(heartbeat.bytes(),
            (std::vector<std::uint8_t>{
                0x06, 0x01, 0x02,  // kHeartbeat, view, committed_up_to
                0xAC, 0x02,        // stable = 300
            }));
}

TEST(GoldenBytes, TcpHelloLayout) {
  const std::vector<std::uint8_t> hello = wire::encode_hello(7);
  const std::vector<std::uint8_t> expected = {
      0x50, 0x53, 0x4D, 0x52,  // magic "PSMR"
      0x03, 0x00,              // wire version 3 (broadcast watermarks)
      0x07, 0x00, 0x00, 0x00,  // node id
  };
  EXPECT_EQ(hello, expected);

  wire::Hello parsed;
  ASSERT_TRUE(wire::decode_hello(hello.data(), &parsed));
  EXPECT_EQ(parsed.node_id, 7u);

  std::vector<std::uint8_t> bad = hello;
  bad[0] ^= 0xFF;  // corrupt magic
  EXPECT_FALSE(wire::decode_hello(bad.data(), &parsed));
  bad = hello;
  bad[4] = 0x04;  // future wire version
  EXPECT_FALSE(wire::decode_hello(bad.data(), &parsed));
}

}  // namespace
}  // namespace psmr
