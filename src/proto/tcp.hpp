// Simplified TCP over the standard NIC — the baseline transport whose
// behaviour on short cluster transfers the paper dissects in Section 4.1.
//
// What is modelled (each item is something the paper explicitly blames):
//   * slow start and congestion avoidance: the congestion window starts
//     at Calibration::tcp_initial_window_segments and must grow across
//     round trips, so short transfers never reach line rate;
//   * interrupt mitigation at BOTH ends: data and ACK frames sit in the
//     NIC until a coalescing interrupt fires, inflating the effective RTT
//     that slow start is clocked by;
//   * per-packet host processing: every MSS-sized wire packet costs CPU
//     time in the stack, contending with application compute;
//   * loss + retransmission: bursts that overflow a switch output buffer
//     are dropped whole; the sender recovers by timeout, halving
//     ssthresh and collapsing the window (TCP's congested-WAN reflexes,
//     exactly wrong for a lossless cluster, per the paper).
//
// Granularity: one Frame per in-flight window (stop-and-wait at window
// scale).  Within a window the per-packet costs are charged
// arithmetically from Frame::packet_count.  This keeps event counts
// O(transfers * round-trips) while preserving the window dynamics that
// shape Figure 4(b)'s communication curve.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "common/units.hpp"
#include "model/calibration.hpp"
#include "net/frame.hpp"
#include "net/nic.hpp"
#include "proto/message.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"
#include "trace/counters.hpp"

namespace acc::proto {

/// One node's TCP endpoint: owns one connection per peer node, carrying
/// both directions, and is the NIC's receive upcall.  MSS, initial and
/// maximum window, minimum RTO and header sizes come from the node's
/// calibration.
class TcpStack {
 public:
  TcpStack(hw::Node& node, net::StandardNic& nic);

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Sends an application message to `dst`; completes when every byte has
  /// been cumulatively ACKed.  Messages to the same destination serialize
  /// on the connection in call order.
  sim::Process send_message(int dst, Bytes size, std::uint64_t tag = 0,
                            std::any payload = {});

  /// Completed inbound messages, in delivery order.
  sim::Channel<Message>& inbox() { return inbox_; }

  /// Retransmission count across all connections (tests, reports).
  std::uint64_t retransmits() const { return retransmits_.value(); }
  std::uint64_t timeouts() const { return timeouts_.value(); }
  /// Times the RTO was doubled by consecutive timeouts on the same data.
  std::uint64_t backoffs() const { return backoffs_.value(); }
  /// Reroutes granted by the fabric after repeated backoffs.
  std::uint64_t reroutes() const { return reroutes_.value(); }

 private:
  struct Connection {
    Connection(sim::Engine& eng, int peer, const model::Calibration& cal)
        : peer(peer), send_lock(eng, 1),
          cwnd(static_cast<double>(cal.tcp_initial_window_segments *
                                   cal.tcp_mss)),
          ssthresh(static_cast<double>(cal.tcp_max_window.count())) {}
    const int peer;                  // the node at the other end
    // ---- sender state ----
    sim::Semaphore send_lock;        // one in-flight message per connection
    Bytes last_burst_wire = Bytes::zero();  // wire size of in-flight burst
    double cwnd = 0.0;               // congestion window, bytes
    double ssthresh = 0.0;           // slow-start threshold, bytes
    std::uint64_t snd_next = 0;      // next sequence byte to send
    std::uint64_t snd_una = 0;       // oldest unacknowledged byte
    std::uint64_t next_msg_id = 1;
    int backoff_shift = 0;           // consecutive-timeout RTO doublings
    bool burst_retransmitted = false;  // Karn: taint the burst's RTT sample
    Time srtt = Time::zero();        // smoothed RTT (zero = unmeasured)
    Time burst_sent_at = Time::zero();
    std::unique_ptr<sim::Event> ack_event;  // re-armed per burst
    sim::TimerHandle rto_timer;      // canceled when the burst is ACKed
    // ---- receiver state ----
    std::uint64_t rcv_next = 0;      // next expected sequence byte
    std::uint64_t rcv_msg_remaining = 0;  // bytes left in current message
    Message rcv_current;             // message being assembled
  };

  /// The connection to `peer`, created on first use.
  Connection& connection(int peer);
  void on_frame(const net::Frame& frame);
  void on_data(const net::Frame& frame);
  void on_ack(const net::Frame& frame);
  void send_ack(int dst, std::uint64_t ack_seq);
  Time current_rto(const Connection& c) const;
  /// Wire bytes of a header-only segment (an ACK), and the per-packet
  /// overhead of a data burst: Ethernet framing + IP + TCP headers.
  Bytes header_wire() const {
    return cal_.ethernet_frame_overhead + cal_.ip_tcp_headers;
  }
  void update_rtt(Connection& c, Time sample);

  hw::Node& node_;
  net::StandardNic& nic_;
  const model::Calibration& cal_;
  sim::Channel<Message> inbox_;
  std::map<int, Connection> connections_;  // keyed by peer node
  // Keeps transmit coroutines alive until they finish.
  std::vector<std::unique_ptr<sim::Process>> tx_in_flight_;
  trace::Counter& retransmits_;
  trace::Counter& timeouts_;
  trace::Counter& backoffs_;
  trace::Counter& reroutes_;
};

}  // namespace acc::proto
