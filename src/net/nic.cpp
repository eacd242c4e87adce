#include "net/nic.hpp"

#include <algorithm>
#include <cassert>

namespace acc::net {

namespace {

/// Start time of a request that was just booked on a FIFO resource:
/// completion minus its own service time (exact for FCFS).
Time start_of(Time completion, Bytes size, Bandwidth rate) {
  return completion - transfer_time(size, rate);
}

}  // namespace

StandardNic::StandardNic(hw::Node& node, Network& network)
    : node_(node),
      network_(network),
      tx_mac_(node.engine(), network.line_rate(),
              "nic-tx-" + std::to_string(node.id())),
      coalescer_(node.engine(), node.cpu(), node.calibration(),
                 [this](std::size_t n) { deliver_batch_to_host(n); }),
      frames_received_(node.engine().counters().get(
          trace::Category::kNic, node.id(), "nic/frames_received")),
      frames_sent_(node.engine().counters().get(
          trace::Category::kNic, node.id(), "nic/frames_sent")),
      crc_dropped_(node.engine().counters().get(
          trace::Category::kNic, node.id(), "nic/crc_drops")) {
  network_.attach(node.id(), *this);
}

sim::Process StandardNic::transmit(Frame frame) {
  sim::Engine& eng = node_.engine();

  // Book the PCI DMA (descriptor fetch + payload) and the MAC
  // serialization.  Both are charged in full for contention accounting,
  // but the datapath is cut-through: the first packet enters the fabric
  // one packet-time after both the DMA stream and the MAC have started,
  // rather than after the whole burst is serialized (the switch egress
  // port performs the one full serialization on the path).
  const Time dma_done = node_.dma().enqueue(frame.payload);
  const Time dma_start =
      start_of(dma_done, frame.payload, node_.pci_bus().rate());
  const Time tx_done = tx_mac_.enqueue(frame.wire);
  const Time tx_start = start_of(tx_done, frame.wire, tx_mac_.rate());

  const Bytes packet_wire =
      Bytes(frame.wire.count() / std::max<std::size_t>(frame.packet_count, 1));
  const Time packet_time = transfer_time(packet_wire, tx_mac_.rate());
  const Time dma_lag = node_.dma().setup();

  Time inject_at = std::max(dma_start + dma_lag, tx_start) + packet_time;
  if (inject_at < eng.now()) inject_at = eng.now();
  eng.schedule_at(inject_at, [this, frame] { network_.inject(frame); });

  frames_sent_.add(eng.now(), 1);
  eng.tracer().span(trace::Category::kNic, node_.id(), "nic/tx", eng.now(),
                    std::max(dma_done, tx_done) - eng.now(),
                    static_cast<std::int64_t>(frame.wire.count()));
  // The caller resumes when the NIC is fully done with the burst (last
  // byte fetched and transmitted).
  co_await sim::DelayUntil{eng, std::max(dma_done, tx_done)};
}

void StandardNic::deliver(const Frame& frame) {
  if (frame.corrupted) {
    // Failed the Ethernet FCS check: dropped in the MAC, before any DMA
    // or interrupt.  TCP sees it as a plain loss and retransmits.
    crc_dropped_.add(node_.engine().now(), 1);
    node_.engine().tracer().instant(
        trace::Category::kNic, node_.id(), "nic/crc_drop",
        node_.engine().now(), static_cast<std::int64_t>(frame.wire.count()));
    return;
  }
  // Bus-master DMA moves packets to host memory as they arrive; the
  // booking charges the PCI bus in full, while readiness is pipelined:
  // data is host-visible one setup+burst after the DMA stream starts
  // (which is arrival time when the bus is idle, later under backlog).
  const Time dma_done = node_.dma().enqueue(frame.payload);
  const Time dma_start =
      start_of(dma_done, frame.payload, node_.pci_bus().rate());
  const Time data_ready =
      std::max(node_.engine().now(), dma_start) + node_.dma().setup();

  rx_pending_.push_back(PendingRx{frame, data_ready});
  frames_received_.add(node_.engine().now(), 1);
  node_.engine().tracer().instant(
      trace::Category::kNic, node_.id(), "nic/rx", node_.engine().now(),
      static_cast<std::int64_t>(frame.wire.count()));
  // Interrupt mitigation counts wire packets (the hardware's view).
  coalescer_.notify_frames(frame.packet_count);
}

void StandardNic::deliver_batch_to_host(std::size_t packets) {
  packet_credit_ += packets;
  while (!rx_pending_.empty() &&
         rx_pending_.front().frame.packet_count <= packet_credit_) {
    PendingRx rx = std::move(rx_pending_.front());
    rx_pending_.pop_front();
    packet_credit_ -= rx.frame.packet_count;

    // Protocol-stack work: per-packet CPU cost, serialized on the host
    // CPU with everything else; the upcall runs when both the stack work
    // and the DMA'd data are ready.
    const Time work = node_.calibration().per_packet_host_cost *
                      static_cast<double>(rx.frame.packet_count);
    const Time stack_done = node_.cpu().charge_protocol_work(work);
    const Time ready = std::max(rx.data_ready, stack_done);
    node_.engine().schedule_at(ready, [this, frame = rx.frame] {
      if (rx_handler_) rx_handler_(frame);
    });
  }
}

}  // namespace acc::net
