// INIC configurations: the idealized card of Section 4 and the ACEII
// prototype of Sections 5-6.
//
// The card's rates, packet size, host-delivery threshold and bucket limit
// are the paper's measured constants and live in model::Calibration
// (read through the card's node); this struct holds only the choices a
// run makes on top of them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/units.hpp"
#include "model/calibration.hpp"

namespace acc::inic {

struct InicConfig {
  /// The ACEII prototype (Sections 5-6) instead of the idealized card of
  /// Section 4.  One on-card bus (Calibration::prototype_card_bus)
  /// carries *all* data traffic, so host-DMA and network streams contend
  /// and a send path crosses the bus twice (host->memory, memory->MAC);
  /// and the Xilinx 4085XLA FPGAs only hold
  /// Calibration::prototype_max_buckets hardware buckets.
  bool prototype = false;

  /// Credit window: bursts in flight per destination.  Sized so that the
  /// total in-flight data never exceeds switch buffering — the paper's
  /// "no packet loss" argument.
  Bytes burst = Bytes::kib(16);
  std::size_t credit_bursts = 2;

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

  static InicConfig prototype_aceii() { return InicConfig{.prototype = true}; }

  /// Customizes the protocol to the cluster, the way Section 4.1 says an
  /// application-specific protocol can: with P-1 senders able to target
  /// one switch port, the per-destination credit window is sized so the
  /// worst-case in-flight data stays safely inside the switch port
  /// buffer, guaranteeing the paper's "no packet loss" property by
  /// construction.  Bursts stay whole multiples of the calibrated packet.
  InicConfig tuned_for(std::size_t processors,
                       const model::Calibration& cal) const {
    InicConfig cfg = *this;
    if (processors > 1) {
      const std::uint64_t packet = cal.inic_packet.count();
      const std::uint64_t budget =
          cal.switch_port_buffer.count() * 4 / 5 /
          (static_cast<std::uint64_t>(processors - 1) * cfg.credit_bursts);
      // Round down to whole packets, floor one packet.
      const std::uint64_t packets = std::max<std::uint64_t>(budget / packet, 1);
      cfg.burst = Bytes(std::min(cfg.burst.count(), packets * packet));
    }
    return cfg;
  }
};

}  // namespace acc::inic
