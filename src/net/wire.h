// TCP wire framing: byte-exact, endian-stable layouts shared by
// TcpTransport and its tests.
//
// A connection starts with one HELLO from each side, then carries frames:
//
//   HELLO :=  magic  u32 LE  ("PSMR" = 0x524D5350)
//             version u16 LE (kWireVersion)
//             node_id u32 LE (announcing side's id; ids are non-negative)
//
//   FRAME :=  length u32 LE  (payload byte count, 1 .. max_frame_bytes)
//             payload        (codec::encode_message bytes)
//
// Every integer is encoded byte-by-byte in little-endian order — never by
// memcpy of a host-order struct — so the same frames are valid between
// machines of different endianness and alignment rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psmr::wire {

inline constexpr std::uint32_t kMagic = 0x524D5350u;  // "PSMR" as LE bytes
// v2: command key encoding changed to a packed nibble byte
// (nkeys | total<<4) that also carries payload key slots; see
// codec/command_codec.cc.
// v3: ACCEPTED carries the sender's delivery watermark, COMMIT and
// HEARTBEAT the stability watermark (broadcast/messages.h).
inline constexpr std::uint16_t kWireVersion = 3;
inline constexpr std::size_t kHelloBytes = 4 + 2 + 4;
inline constexpr std::size_t kFrameHeaderBytes = 4;

inline void put_u16_le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline std::uint16_t get_u16_le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::vector<std::uint8_t> encode_hello(std::uint32_t node_id) {
  std::vector<std::uint8_t> out;
  out.reserve(kHelloBytes);
  put_u32_le(out, kMagic);
  put_u16_le(out, kWireVersion);
  put_u32_le(out, node_id);
  return out;
}

struct Hello {
  std::uint32_t node_id = 0;
};

// Parses a HELLO from exactly kHelloBytes at `p`; false on bad magic or
// version mismatch.
inline bool decode_hello(const std::uint8_t* p, Hello* out) {
  if (get_u32_le(p) != kMagic) return false;
  if (get_u16_le(p + 4) != kWireVersion) return false;
  out->node_id = get_u32_le(p + 6);
  return true;
}

}  // namespace psmr::wire
