// INIC configurations: the idealized card of Section 4 and the ACEII
// prototype of Sections 5-6.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/units.hpp"

namespace acc::inic {

struct InicConfig {
  /// Host <-> card streaming DMA rate ("a conservative 80%-90% of
  /// measured results": 80 MB/s, Equations 6/9/13/16).
  Bandwidth host_dma_rate = Bandwidth::mib_per_sec(80.0);
  /// Card <-> network rate (90 MB/s, Equations 7/8/14/15); the effective
  /// rate is additionally capped by the attached line rate.
  Bandwidth net_rate = Bandwidth::mib_per_sec(90.0);

  /// Prototype deficiency (Section 5): one 132 MB/s on-card bus carries
  /// *all* data traffic, so host-DMA and network streams contend and a
  /// send path crosses the bus twice (host->memory, memory->MAC).
  bool shared_card_bus = false;
  Bandwidth card_bus_rate = Bandwidth::mib_per_sec(132.0);

  /// Largest hardware bucket-sort fan-out the FPGAs can hold.  The
  /// Xilinx 4085XLA prototype fits 16 (Section 6); the idealized card is
  /// unconstrained.
  std::size_t max_hw_buckets = std::numeric_limits<std::size_t>::max();

  /// INIC protocol parameters (Section 4.2): 1024-byte packets on raw
  /// Ethernet (each with 46 bytes of framing and header, inic/card.cpp).
  Bytes packet = Bytes(1024);
  /// Credit window: bursts in flight per destination.  Sized so that the
  /// total in-flight data never exceeds switch buffering — the paper's
  /// "no packet loss" argument.
  Bytes burst = Bytes::kib(16);
  std::size_t credit_bursts = 2;

  /// Minimum card-to-host DMA transfer (Equation 15's 64 KB).
  Bytes host_delivery_threshold = Bytes::kib(64);

  /// Hardware error handling ("on rare occasion, interrupts may be
  /// needed for error handling", Section 4.1 footnote): when enabled,
  /// the sending card retransmits outstanding bursts whose credit has
  /// not returned within the timeout (go-back-N), and the receiving card
  /// discards duplicates/gaps by sequence number.  Off by default — the
  /// protocol is lossless by construction on a healthy fabric.
  bool hw_retransmit = false;
  Time retransmit_timeout = Time::millis(2.0);
  /// Go-back-N retry budget per destination: after this many consecutive
  /// retransmission rounds with no credit progress the card declares the
  /// peer unreachable (surfaced to the application as
  /// PeerUnreachableError).  0 keeps the historical retry-forever
  /// behaviour.  Consecutive rounds back off and a dry budget first asks
  /// the fabric for a reroute (constants in inic/card.cpp,
  /// docs/FAULTS.md).
  std::size_t max_retries = 0;

  static InicConfig ideal() { return InicConfig{}; }

  static InicConfig prototype_aceii() {
    InicConfig cfg;
    cfg.shared_card_bus = true;
    cfg.max_hw_buckets = 16;
    return cfg;
  }

  /// Customizes the protocol to the cluster, the way Section 4.1 says an
  /// application-specific protocol can: with P-1 senders able to target
  /// one switch port, the per-destination credit window is sized so the
  /// worst-case in-flight data stays safely inside the port buffer,
  /// guaranteeing the paper's "no packet loss" property by construction.
  InicConfig tuned_for(std::size_t processors, Bytes port_buffer) const {
    InicConfig cfg = *this;
    if (processors > 1) {
      const std::uint64_t budget =
          port_buffer.count() * 4 / 5 /
          (static_cast<std::uint64_t>(processors - 1) * cfg.credit_bursts);
      // Round down to whole packets, floor one packet.
      const std::uint64_t packets =
          std::max<std::uint64_t>(budget / cfg.packet.count(), 1);
      const std::uint64_t burst =
          std::min(cfg.burst.count(), packets * cfg.packet.count());
      cfg.burst = Bytes(burst);
    }
    return cfg;
  }
};

}  // namespace acc::inic
