// Network frames.
//
// To keep event counts independent of transfer size, a Frame represents a
// *burst* of back-to-back Ethernet packets belonging to one flow (a TCP
// window's flight, or a train of 1024-byte INIC packets).  `packet_count`
// records how many wire packets the burst stands for; per-packet costs
// (host protocol work, framing overhead) are charged arithmetically from
// it, while serialization and buffering use the exact wire byte count.
#pragma once

#include <cstdint>
#include <memory>

#include "common/units.hpp"

namespace acc::net {

enum class FrameKind : std::uint8_t {
  kData = 0,
  kAck = 1,
  kControl = 2,
};

struct Frame {
  int src = -1;                  // source node id
  int dst = -1;                  // destination node id
  Bytes payload = Bytes::zero(); // application bytes carried
  Bytes wire = Bytes::zero();    // total bytes on the wire (headers incl.)
  std::size_t packet_count = 1;  // wire packets this burst represents
  std::uint32_t flow = 0;        // protocol stream id (INIC: message id)
  FrameKind kind = FrameKind::kData;
  std::uint64_t seq = 0;         // protocol sequence number (first byte)
  std::uint64_t id = 0;          // network-assigned, unique per injection
  /// Set by fault injection: the frame reaches the endpoint but fails its
  /// CRC there.  Distinct from silent loss — the bytes still occupy the
  /// fabric and the receiving device, but the protocol never sees them.
  bool corrupted = false;
  /// Protocol-defined context riding the frame (e.g. a message header on
  /// the first burst of a TCP message).  Opaque to the network.
  std::shared_ptr<void> context;
};

/// Wire size of a burst of `packets` packets carrying `payload` bytes
/// total, with `per_packet_overhead` bytes of framing+protocol headers on
/// each packet.
inline Bytes burst_wire_size(Bytes payload, std::size_t packets,
                             Bytes per_packet_overhead) {
  return payload + per_packet_overhead * static_cast<std::uint64_t>(packets);
}

}  // namespace acc::net
