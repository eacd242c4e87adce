// Standard (non-intelligent) NIC model — the baseline of every comparison
// in the paper (SysKonnect Gigabit Ethernet or Fast Ethernet on the host
// PCI bus).
//
// Transmit: payload is DMA'd from host memory across the shared PCI bus,
// then serialized onto the wire at line rate.  Receive: arriving bursts
// raise coalesced interrupts (hw::InterruptCoalescer); only after the
// interrupt is serviced does the NIC DMA the data to host memory and hand
// it to the protocol stack, charging per-packet CPU work.  These two
// receive-side costs — interrupt latency and per-packet processing — are
// the mechanisms Section 4.1 blames for Gigabit Ethernet's poor transpose
// scaling.  The coalescing thresholds and the per-packet protocol cost
// come from the node's calibration.
#pragma once

#include <deque>
#include <functional>

#include "common/units.hpp"
#include "hw/interrupts.hpp"
#include "hw/node.hpp"
#include "net/frame.hpp"
#include "net/network.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "trace/counters.hpp"

namespace acc::net {

class StandardNic : public Endpoint {
 public:
  using RxHandler = std::function<void(const Frame&)>;

  StandardNic(hw::Node& node, Network& network);

  /// Installs the protocol receive upcall (runs after interrupt + DMA).
  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  /// Transmit path: DMA from host memory, serialize at line rate, inject.
  /// Awaitable; completes when the last bit leaves the NIC.
  sim::Process transmit(Frame frame);

  /// Endpoint interface: burst fully arrived at the NIC from the switch.
  void deliver(const Frame& frame) override;

  std::uint64_t interrupts_fired() const { return coalescer_.interrupts_fired(); }
  std::uint64_t frames_received() const { return frames_received_.value(); }
  std::uint64_t frames_sent() const { return frames_sent_.value(); }
  std::uint64_t crc_drops() const { return crc_dropped_.value(); }
  hw::Node& node() { return node_; }
  Network& network() { return network_; }

 private:
  struct PendingRx {
    Frame frame;
    Time data_ready;  // when the rx DMA has landed in host memory
  };

  void deliver_batch_to_host(std::size_t packets);

  hw::Node& node_;
  Network& network_;
  sim::FifoResource tx_mac_;
  hw::InterruptCoalescer coalescer_;
  std::deque<PendingRx> rx_pending_;  // arrived, awaiting interrupt service
  std::size_t packet_credit_ = 0;     // interrupt-covered packets not yet
                                      // matched to a pending burst
  RxHandler rx_handler_;
  trace::Counter& frames_received_;
  trace::Counter& frames_sent_;
  trace::Counter& crc_dropped_;
};

}  // namespace acc::net
