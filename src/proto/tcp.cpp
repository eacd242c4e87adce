#include "proto/tcp.hpp"

#include <algorithm>
#include <cassert>

namespace acc::proto {

namespace {

// Cap on the RTO that consecutive timeouts on the same data double
// (Karn/Jacobson); an ACK that advances snd_una resets the backoff.
constexpr Time kMaxRto = Time::nanos(5'000'000'000);  // 5 s
// After this many consecutive RTO backoffs on one connection the stack
// asks the fabric for a reroute (Fabric::request_reroute); a granted
// reroute resets the backoff and the next retransmission takes the
// alternate path.  Inert unless the fabric runs adaptive routing.
constexpr int kRerouteAfterBackoffs = 3;

}  // namespace

TcpStack::TcpStack(hw::Node& node, net::StandardNic& nic)
    : node_(node),
      nic_(nic),
      cal_(node.calibration()),
      inbox_(node.engine()),
      retransmits_(node.engine().counters().get(
          trace::Category::kTcp, node.id(), "tcp/retransmits")),
      timeouts_(node.engine().counters().get(trace::Category::kTcp, node.id(),
                                             "tcp/timeouts")),
      backoffs_(node.engine().counters().get(trace::Category::kTcp, node.id(),
                                             "tcp/rto_backoffs")),
      reroutes_(node.engine().counters().get(trace::Category::kTcp, node.id(),
                                             "tcp/reroutes")) {
  nic_.set_rx_handler([this](const net::Frame& f) { on_frame(f); });
}

TcpStack::Connection& TcpStack::connection(int peer) {
  return connections_.try_emplace(peer, node_.engine(), peer, cal_)
      .first->second;
}

Time TcpStack::current_rto(const Connection& c) const {
  Time rto = c.srtt == Time::zero() ? cal_.tcp_min_rto
                                    : std::max(cal_.tcp_min_rto, c.srtt * 3.0);
  // Path-aware floor: the timer must never undercut two round trips of
  // the burst and its ACK over the *actual* route — on a multi-hop or
  // rate-degraded fabric a single-hop constant under-estimates the RTT
  // and fires spurious retransmissions.  On the single-star configs the
  // floor sits far below min_rto and changes nothing.
  const auto& net = nic_.network();
  const Time rtt = net.path_latency(node_.id(), c.peer, c.last_burst_wire) +
                   net.path_latency(c.peer, node_.id(), header_wire());
  rto = std::max(rto, rtt * 2.0);
  // Exponential backoff: each consecutive timeout on the same data
  // doubles the timer, capped — a dead or badly lossy path must not be
  // hammered on a fixed 200 ms clock.
  for (int i = 0; i < c.backoff_shift && rto < kMaxRto; ++i) {
    rto = rto * 2.0;
  }
  return std::min(rto, kMaxRto);
}

void TcpStack::update_rtt(Connection& c, Time sample) {
  if (c.srtt == Time::zero()) {
    c.srtt = sample;
  } else {
    c.srtt = c.srtt * 0.875 + sample * 0.125;
  }
}

sim::Process TcpStack::send_message(int dst, Bytes size, std::uint64_t tag,
                                    std::any payload) {
  // A zero-length application message still needs a wire presence so the
  // receiver can complete it; it occupies one byte of sequence space
  // (the same trick TCP uses for FIN/SYN).
  if (size.count() == 0) size = Bytes(1);
  Connection& c = connection(dst);
  sim::Engine& eng = node_.engine();
  co_await c.send_lock.acquire();

  const std::uint64_t msg_id = c.next_msg_id++;
  // A new message starts at the cumulative-ACK point, not snd_next: after
  // a timeout-shrunk retransmission, a cumulative ACK for data the
  // receiver already had can advance snd_una past a stale snd_next.
  const std::uint64_t msg_start = c.snd_una;
  c.snd_next = msg_start;
  const std::uint64_t msg_end = msg_start + size.count();
  // The first burst carries the Message itself; the receiver takes it.
  auto header = std::make_shared<Message>(Message{.src = node_.id(),
                                                  .dst = dst,
                                                  .id = msg_id,
                                                  .tag = tag,
                                                  .size = size,
                                                  .payload = std::move(payload),
                                                  .sent_at = eng.now()});

  bool retransmission = false;
  while (c.snd_una < msg_end) {
    const std::uint64_t burst_start = c.snd_una;
    c.snd_next = burst_start;
    const std::uint64_t window = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(c.cwnd), cal_.tcp_mss);
    const std::uint64_t burst_bytes =
        std::min<std::uint64_t>(window, msg_end - burst_start);
    const std::size_t packets =
        (burst_bytes + cal_.tcp_mss - 1) / cal_.tcp_mss;

    net::Frame frame;
    frame.src = node_.id();
    frame.dst = dst;
    frame.payload = Bytes(burst_bytes);
    frame.wire =
        net::burst_wire_size(Bytes(burst_bytes), packets, header_wire());
    frame.packet_count = packets;
    frame.kind = net::FrameKind::kData;
    frame.seq = burst_start;
    if (burst_start == msg_start) frame.context = header;

    c.snd_next = burst_start + burst_bytes;
    c.last_burst_wire = frame.wire;
    c.burst_sent_at = eng.now();
    c.burst_retransmitted = retransmission;
    eng.tracer().instant(trace::Category::kTcp, node_.id(), "tcp/tx_burst",
                         eng.now(), static_cast<std::int64_t>(burst_bytes));
    co_await nic_.transmit(frame);

    // Wait for the cumulative ACK to cover this burst, or for the
    // retransmission timer.
    c.ack_event = std::make_unique<sim::Event>(eng);
    // The timer is cancelable: a clean ACK removes it from the heap in
    // on_ack() instead of leaving a stale no-op to fire after the
    // transfer is done.  The previous burst's timer has either fired or
    // been canceled by the ACK that woke this loop, so the timer that
    // fires is always this burst's.
    c.rto_timer = eng.schedule_cancelable(current_rto(c), [this, &c] {
      if (c.snd_una < c.snd_next) {
        sim::Engine& e = node_.engine();
        timeouts_.add(e.now(), 1);
        e.tracer().instant(trace::Category::kTcp, node_.id(), "tcp/timeout",
                           e.now(),
                           static_cast<std::int64_t>(c.snd_next - c.snd_una));
        // Loss: collapse the window per TCP's congestion response, and
        // back the timer off exponentially for the next attempt (the
        // backoff resets when an ACK advances snd_una).
        c.ssthresh =
            std::max(c.cwnd / 2.0, 2.0 * static_cast<double>(cal_.tcp_mss));
        c.cwnd = static_cast<double>(cal_.tcp_initial_window_segments *
                                     cal_.tcp_mss);
        if (current_rto(c) < kMaxRto) {
          ++c.backoff_shift;
          backoffs_.add(e.now(), 1);
          e.tracer().instant(trace::Category::kTcp, node_.id(),
                             "tcp/rto_backoff", e.now(),
                             static_cast<std::int64_t>(c.backoff_shift));
        }
        // Escalation: repeated backoffs on one connection are end-to-end
        // evidence of a dead path, not congestion.  Ask the fabric for an
        // alternate route; a grant resets the backoff so the retransmit
        // probes the new path at the un-inflated RTO.
        if (c.backoff_shift >= kRerouteAfterBackoffs &&
            nic_.network().request_reroute(node_.id(), c.peer)) {
          c.backoff_shift = 0;
          reroutes_.add(e.now(), 1);
          e.tracer().instant(trace::Category::kTcp, node_.id(), "tcp/reroute",
                             e.now(), static_cast<std::int64_t>(c.peer));
        }
        if (c.ack_event) c.ack_event->trigger();
      }
    });
    co_await c.ack_event->wait();

    if (c.snd_una < c.snd_next) {
      // Timed out: loop retransmits from snd_una.
      retransmits_.add(eng.now(), 1);
      eng.tracer().instant(trace::Category::kTcp, node_.id(),
                           "tcp/retransmit", eng.now(),
                           static_cast<std::int64_t>(c.snd_una));
      retransmission = true;
      continue;
    }
    retransmission = false;
  }
  c.send_lock.release();
}

void TcpStack::on_frame(const net::Frame& frame) {
  if (frame.kind == net::FrameKind::kData) {
    on_data(frame);
  } else if (frame.kind == net::FrameKind::kAck) {
    on_ack(frame);
  }
}

void TcpStack::on_data(const net::Frame& frame) {
  Connection& c = connection(frame.src);
  if (frame.seq == c.rcv_next) {
    if (c.rcv_msg_remaining == 0) {
      // First burst of a new message: it carries the Message itself.
      auto header = std::static_pointer_cast<Message>(frame.context);
      assert(header && "data burst without message header at message start");
      if (!header) {
        // Defensive (release builds): protocol desync — drop the burst
        // and re-announce our position rather than corrupting assembly.
        send_ack(frame.src, c.rcv_next);
        return;
      }
      // Take the Message, do not copy it: each header is consumed here
      // exactly once.  A message starts only at seq == rcv_next with no
      // message in progress, and a retransmitted first burst arrives with
      // seq < rcv_next, so the duplicate path below never reads it.
      c.rcv_current = std::move(*header);
      c.rcv_msg_remaining = c.rcv_current.size.count();
    }
    assert(frame.payload.count() <= c.rcv_msg_remaining);
    c.rcv_next += frame.payload.count();
    c.rcv_msg_remaining -= frame.payload.count();
    if (c.rcv_msg_remaining == 0) {
      c.rcv_current.delivered_at = node_.engine().now();
      node_.engine().tracer().instant(
          trace::Category::kTcp, node_.id(), "tcp/msg_complete",
          node_.engine().now(),
          static_cast<std::int64_t>(c.rcv_current.size.count()));
      inbox_.send_now(std::move(c.rcv_current));
    }
  }
  // Duplicate (seq < rcv_next, e.g. a lost ACK) or defensive gap: either
  // way, (re)announce the cumulative position.
  send_ack(frame.src, c.rcv_next);
}

void TcpStack::on_ack(const net::Frame& frame) {
  auto it = connections_.find(frame.src);
  if (it == connections_.end()) return;
  Connection& c = it->second;
  const std::uint64_t ack = frame.seq;
  if (ack <= c.snd_una) return;  // stale
  c.snd_una = ack;
  // Forward progress: the path is alive again, so the exponential RTO
  // backoff resets.
  c.backoff_shift = 0;
  if (c.snd_una >= c.snd_next) {
    // Burst fully acknowledged: cancel the timer (removing it from the
    // event heap — after the workload no defensive timers linger), take
    // an RTT sample (skipped for retransmitted bursts — Karn's rule:
    // the ACK is ambiguous between transmissions), and grow the window
    // (double in slow start, +MSS in congestion avoidance), capped by
    // the socket buffer.
    c.rto_timer.cancel();
    if (!c.burst_retransmitted) {
      update_rtt(c, node_.engine().now() - c.burst_sent_at);
    }
    const double cap = static_cast<double>(cal_.tcp_max_window.count());
    if (c.cwnd < c.ssthresh) {
      c.cwnd = std::min(c.cwnd * 2.0, cap);
    } else {
      c.cwnd = std::min(c.cwnd + static_cast<double>(cal_.tcp_mss), cap);
    }
    if (c.ack_event) c.ack_event->trigger();
  }
}

void TcpStack::send_ack(int dst, std::uint64_t ack_seq) {
  net::Frame ack;
  ack.src = node_.id();
  ack.dst = dst;
  ack.payload = Bytes::zero();
  ack.wire = header_wire();
  ack.packet_count = 1;
  ack.kind = net::FrameKind::kAck;
  ack.seq = ack_seq;

  // ACK transmission is itself a (small) NIC operation; keep the
  // coroutine alive until it completes, pruning finished ones lazily.
  std::erase_if(tx_in_flight_,
                [](const std::unique_ptr<sim::Process>& p) { return p->done(); });
  auto p = std::make_unique<sim::Process>(nic_.transmit(ack));
  p->start(node_.engine());
  tx_in_flight_.push_back(std::move(p));
}

}  // namespace acc::proto
