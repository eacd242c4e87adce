#include "inic/card.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace acc::inic {

namespace {

// Per-packet header overhead on the wire: 38 bytes of Ethernet framing
// plus the 8-byte minimal INIC protocol header (Section 4.2).
constexpr Bytes kPerPacketOverhead = Bytes(46);
// FPGA pipeline forwarding latency per hop (cut-through).
constexpr Time kCardLatency = Time::nanos(2'000);

// Go-back-N retry tunables (docs/FAULTS.md).  Each fruitless round to a
// destination multiplies its retransmit timeout by kRetransmitBackoff, up
// to kRetransmitTimeoutCap; credit progress resets it.
constexpr double kRetransmitBackoff = 2.0;
constexpr Time kRetransmitTimeoutCap = Time::nanos(32'000'000);  // 32 ms
// When the retry budget runs dry the card first asks the fabric for an
// alternate route (Fabric::request_reroute) and, if one exists, resets
// the retry round and re-arms instead of declaring the peer unreachable —
// up to this many grants per destination (credit progress resets the
// grant count).  Inert unless the fabric runs adaptive routing.
constexpr std::uint32_t kMaxReroutes = 8;

}  // namespace

InicCard::InicCard(hw::Node& node, net::Network& network,
                   const InicConfig& cfg)
    : node_(node),
      network_(network),
      cfg_(cfg),
      host_dma_(node.engine(), cfg.host_dma_rate,
                "inic-hostdma-" + std::to_string(node.id())),
      net_tx_(node.engine(),
              std::min(cfg.net_rate, network.line_rate()),
              "inic-tx-" + std::to_string(node.id())),
      net_rx_(node.engine(),
              std::min(cfg.net_rate, network.line_rate()),
              "inic-rx-" + std::to_string(node.id())),
      card_inbox_(node.engine()),
      bursts_sent_(counter("inic/bursts_sent")),
      credits_received_(counter("inic/credits_received")),
      retransmits_(counter("inic/retransmits")),
      duplicates_dropped_(counter("inic/duplicates_dropped")),
      bytes_to_host_(counter("inic/bytes_to_host")),
      crc_dropped_(counter("inic/crc_drops")),
      reset_dropped_(counter("inic/reset_drops")),
      peer_unreachable_(counter("inic/peer_unreachable")),
      reroutes_(counter("inic/reroutes")),
      resets_(counter("inic/resets")),
      triggers_armed_(trigger_counter("coll/triggers_armed")),
      trigger_fires_(trigger_counter("coll/trigger_fires")),
      trigger_dups_(trigger_counter("coll/trigger_dups")) {
  if (cfg_.shared_card_bus) {
    card_bus_ = std::make_unique<sim::FifoResource>(
        node.engine(), cfg_.card_bus_rate,
        "inic-bus-" + std::to_string(node.id()));
  }
  network_.attach(node.id(), *this);
}

trace::Counter& InicCard::counter(const char* name) {
  return node_.engine().counters().get(trace::Category::kInic, node_.id(),
                                       name);
}

trace::Counter& InicCard::trigger_counter(const char* name) {
  return node_.engine().counters().get(trace::Category::kCollective,
                                       node_.id(), name);
}

trace::Tracer& InicCard::tracer() { return node_.engine().tracer(); }

Time InicCard::book_stage(sim::FifoResource& stage, Bytes size) {
  // During a reset window the whole datapath is frozen: every stage
  // books after the window ends.  (enqueue_after(now) == enqueue when
  // the card is healthy, so this is free on the common path.)
  const Time earliest = std::max(node_.engine().now(), paused_until_);
  const Time stage_done = stage.enqueue_after(earliest, size);
  if (!card_bus_) return stage_done;
  // Prototype: the same bytes also cross the single on-card bus; the
  // transfer completes only when both the stage and the bus are done.
  const Time bus_done = card_bus_->enqueue_after(earliest, size);
  return std::max(stage_done, bus_done);
}

void InicCard::begin_reset(Time duration) {
  sim::Engine& eng = node_.engine();
  const Time until = eng.now() + duration;
  if (until > paused_until_) paused_until_ = until;
  resets_.add(eng.now(), 1);
  tracer().instant(trace::Category::kInic, node_.id(), "inic/reset",
                   eng.now(), duration.as_nanos());
}

InicCard::Peer& InicCard::peer(int node) {
  return peers_.try_emplace(node, node_.engine(), node, cfg_.credit_bursts)
      .first->second;
}

void InicCard::Peer::mark_completed(std::uint32_t id) {
  done_above.insert(
      std::lower_bound(done_above.begin(), done_above.end(), id), id);
  // Advance the watermark past the run of completed ids that starts at it.
  auto run = done_above.begin();
  for (; run != done_above.end() && *run == watermark; ++run) ++watermark;
  done_above.erase(done_above.begin(), run);
}

sim::Process InicCard::send_stream(int dst, Bytes size, std::uint64_t tag,
                                   std::any payload) {
  if (dst == node_.id()) {
    throw std::invalid_argument("InicCard::send_stream: dst is self");
  }
  // Zero-length messages still travel as one header packet so the
  // receiver can complete them (empty bucket in a skewed all-to-all).
  if (size.count() == 0) size = Bytes(1);
  if (peer_unreachable(dst)) {
    throw PeerUnreachableError(node_.id(), dst);
  }
  sim::Engine& eng = node_.engine();

  // The FPGA transform is applied to the stream as it crosses the card —
  // functionally once, up front, so the receiver sees transformed data.
  std::any transformed =
      send_transform_ ? send_transform_(std::move(payload)) : std::move(payload);

  Peer& p = peer(dst);
  const std::uint32_t msg_id = p.next_msg_id++;
  // The first burst carries the Message itself; the receiver takes it.
  auto header = std::make_shared<proto::Message>(
      proto::Message{.src = node_.id(),
                     .dst = dst,
                     .id = msg_id,
                     .tag = tag,
                     .size = size,
                     .payload = std::move(transformed),
                     .sent_at = eng.now()});

  std::uint64_t remaining = size.count();
  std::uint64_t seq = 0;
  Time last_tx_done = eng.now();
  bool first = true;
  while (remaining > 0) {
    const std::uint64_t burst =
        std::min<std::uint64_t>(remaining, cfg_.burst.count());
    // Stage 1: host -> card memory (booked immediately; the card's
    // memory buffers ahead of the transmitter).
    const Time in_card = book_stage(host_dma_, Bytes(burst));
    tracer().span(trace::Category::kInic, node_.id(), "inic/host_dma",
                  eng.now(), in_card - eng.now(),
                  static_cast<std::int64_t>(burst));

    // Flow control: one credit per burst in flight to this destination.
    co_await p.credits.acquire();
    if (p.unreachable) {
      // The retry budget ran out while we were blocked on a credit (the
      // credits were force-released to wake us); surface the failure.
      p.credits.release();
      throw PeerUnreachableError(node_.id(), dst);
    }

    const std::size_t packets =
        (burst + cfg_.packet.count() - 1) / cfg_.packet.count();
    net::Frame frame;
    frame.src = node_.id();
    frame.dst = dst;
    frame.payload = Bytes(burst);
    frame.wire = net::burst_wire_size(Bytes(burst), packets,
                                      kPerPacketOverhead);
    frame.packet_count = packets;
    frame.flow = msg_id;
    frame.kind = net::FrameKind::kData;
    frame.seq = seq;
    if (first) frame.context = header;
    first = false;

    // Stage 2: card memory -> MAC, not before the data is on the card.
    const Time tx_done = transmit_burst(frame, in_card + kCardLatency);
    bursts_sent_.add(eng.now(), 1);
    track_outstanding(p, frame);

    seq += burst;
    remaining -= burst;
    last_tx_done = tx_done;
  }
  // Completion: the last burst has fully left the card.
  co_await sim::DelayUntil{eng, last_tx_done};
}

Time InicCard::transmit_burst(const net::Frame& frame, Time not_before) {
  sim::Engine& eng = node_.engine();
  // A resetting card cannot drive the MAC: the burst waits out the window.
  if (not_before < paused_until_) not_before = paused_until_;
  const Time packet_time =
      transfer_time(cfg_.packet + kPerPacketOverhead, net_tx_.rate());
  const Time tx_done =
      card_bus_ ? std::max(net_tx_.enqueue_after(not_before, frame.wire),
                           card_bus_->enqueue_after(not_before, frame.wire))
                : net_tx_.enqueue_after(not_before, frame.wire);
  tracer().span(trace::Category::kInic, node_.id(), "inic/tx_burst",
                eng.now(), tx_done - eng.now(),
                static_cast<std::int64_t>(frame.wire.count()));
  // Cut-through into the fabric after the first packet.
  Time inject_at =
      tx_done - transfer_time(frame.wire, net_tx_.rate()) + packet_time;
  if (inject_at < eng.now()) inject_at = eng.now();
  eng.schedule_at(inject_at, [this, frame] {
    if (in_reset()) {
      // A reset began between booking and injection: the frame dies on
      // the card.  Go-back-N recovers it after the window.
      reset_dropped_.add(node_.engine().now(), 1);
      tracer().instant(trace::Category::kInic, node_.id(), "inic/reset_drop",
                       node_.engine().now(),
                       static_cast<std::int64_t>(frame.wire.count()));
      return;
    }
    network_.inject(frame);
  });
  return tx_done;
}

void InicCard::track_outstanding(Peer& p, const net::Frame& frame) {
  p.outstanding.push_back(OutstandingBurst{frame, node_.engine().now()});
  if (cfg_.hw_retransmit && p.outstanding.size() == 1) {
    arm_retransmit_timer(p);
  }
}

void InicCard::arm_retransmit_timer(Peer& p) {
  p.retransmit_timer.cancel();
  p.retransmit_timer = node_.engine().schedule_cancelable(
      effective_retransmit_timeout(p), [this, &p] { check_retransmit(p); });
}

Time InicCard::effective_retransmit_timeout(const Peer& p) const {
  // Path-aware floor: a credit cannot possibly return before a full
  // burst reaches the peer and the credit frame crosses back, so the
  // go-back-N timer must never undercut two such round trips over the
  // *actual* route — including multi-hop serialization and degraded port
  // rates a single-hop constant knows nothing about.  On the single-star
  // fabric the configured timeout dominates, preserving the historical
  // timing.
  const std::size_t packets =
      (cfg_.burst.count() + cfg_.packet.count() - 1) / cfg_.packet.count();
  const Bytes burst_wire =
      net::burst_wire_size(cfg_.burst, packets, kPerPacketOverhead);
  const Time rtt =
      network_.path_latency(node_.id(), p.node, burst_wire) +
      network_.path_latency(p.node, node_.id(), Bytes(84));  // credit frame
  Time timeout = std::max(cfg_.retransmit_timeout, rtt * 2.0);
  // A floor above the configured cap would otherwise make backoff
  // non-monotonic; the cap rises with it.
  const Time cap = std::max(kRetransmitTimeoutCap, timeout);
  for (std::uint32_t i = 0; i < p.retry_rounds; ++i) {
    timeout = timeout * kRetransmitBackoff;
    if (timeout >= cap) {
      return cap;
    }
  }
  return timeout;
}

void InicCard::declare_peer_unreachable(Peer& p) {
  sim::Engine& eng = node_.engine();
  const std::size_t abandoned = p.outstanding.size();
  p.outstanding.clear();
  p.retransmit_timer.cancel();
  p.unreachable = true;
  peer_unreachable_.add(eng.now(), 1);
  tracer().instant(trace::Category::kInic, node_.id(),
                   "inic/peer_unreachable", eng.now(), p.node);
  // Each abandoned burst held one credit; return them so senders blocked
  // in credits.acquire() wake up and observe the failure.
  for (std::size_t i = 0; i < abandoned; ++i) {
    p.credits.release();
  }
  wake_flush_waiters(p);
}

void InicCard::wake_flush_waiters(Peer& p) {
  // Swap out first: a resumed waiter may re-park itself.
  std::vector<std::shared_ptr<sim::Event>> waiters =
      std::exchange(p.flush_waiters, {});
  for (const auto& ev : waiters) ev->trigger();
}

sim::Process InicCard::flush(int dst) {
  // Without go-back-N nothing ever retires the outstanding queue, so
  // there is no confirmation to wait for (and no exhaustion to detect).
  if (!cfg_.hw_retransmit) co_return;
  for (;;) {
    if (peer_unreachable(dst)) {
      throw PeerUnreachableError(node_.id(), dst);
    }
    const auto it = peers_.find(dst);
    if (it == peers_.end() || it->second.outstanding.empty()) co_return;
    auto ev = std::make_shared<sim::Event>(node_.engine());
    it->second.flush_waiters.push_back(ev);
    co_await ev->wait();
  }
}

void InicCard::check_retransmit(Peer& p) {
  if (p.outstanding.empty()) return;
  sim::Engine& eng = node_.engine();
  if (eng.now() - p.outstanding.front().sent_at <
      effective_retransmit_timeout(p)) {
    // Credit progress happened since the timer was armed; re-check later.
    arm_retransmit_timer(p);
    return;
  }
  if (cfg_.max_retries > 0 && p.retry_rounds >= cfg_.max_retries) {
    // Escalation before surrender: a dry retry budget is end-to-end
    // evidence the current path is dead.  If the fabric can re-converge
    // onto an alternate, reset the round counter and fall through to
    // retransmit over the new path; credit progress resets the grant
    // budget.  Only when no alternate exists (or the grants are spent)
    // does the failure surface as PeerUnreachableError.
    if (p.reroute_grants < kMaxReroutes &&
        network_.request_reroute(node_.id(), p.node)) {
      ++p.reroute_grants;
      p.retry_rounds = 0;
      reroutes_.add(eng.now(), 1);
      tracer().instant(trace::Category::kInic, node_.id(), "inic/reroute",
                       eng.now(), p.node);
    } else {
      declare_peer_unreachable(p);
      return;
    }
  }
  ++p.retry_rounds;
  // Go-back-N: resend every outstanding burst to this destination in
  // order, refreshing their timestamps.  Consecutive fruitless rounds
  // back the timer off exponentially (credit progress resets it).
  for (OutstandingBurst& burst : p.outstanding) {
    transmit_burst(burst.frame, eng.now() + kCardLatency);
    burst.sent_at = eng.now();
    retransmits_.add(eng.now(), 1);
    tracer().instant(trace::Category::kInic, node_.id(), "inic/retransmit",
                     eng.now(), static_cast<std::int64_t>(burst.frame.seq));
  }
  arm_retransmit_timer(p);
}

void InicCard::deliver(const net::Frame& frame) {
  sim::Engine& eng = node_.engine();

  if (in_reset()) {
    // The MAC is dark during a bitstream reconfiguration: everything
    // arriving — data and credits alike — is lost on the floor.
    reset_dropped_.add(eng.now(), 1);
    tracer().instant(trace::Category::kInic, node_.id(), "inic/reset_drop",
                     eng.now(), static_cast<std::int64_t>(frame.wire.count()));
    return;
  }
  if (frame.corrupted) {
    // Delivered but failed the CRC check: discarded without a credit, so
    // the sender's go-back-N recovers it like a silent loss.
    crc_dropped_.add(eng.now(), 1);
    tracer().instant(trace::Category::kInic, node_.id(), "inic/crc_drop",
                     eng.now(), static_cast<std::int64_t>(frame.wire.count()));
    return;
  }

  if (frame.kind == net::FrameKind::kControl) {
    // Credit return, generated and consumed entirely in hardware.  The
    // credit names the burst it acknowledges ((flow, seq) echoed from the
    // data frame): only that burst is retired from the outstanding queue.
    // An anonymous "pop the oldest" credit would let a later burst's
    // credit retire an earlier, still-lost burst — dropping it from
    // go-back-N and deadlocking the receiver.  Credits for bursts no
    // longer outstanding (duplicate re-credits) are ignored so the window
    // cannot inflate.
    auto it = peers_.find(frame.src);
    if (it == peers_.end()) return;
    Peer& p = it->second;
    auto burst = std::find_if(p.outstanding.begin(), p.outstanding.end(),
                              [&frame](const OutstandingBurst& b) {
                                return b.frame.flow == frame.flow &&
                                       b.frame.seq == frame.seq;
                              });
    if (burst == p.outstanding.end()) return;
    p.outstanding.erase(burst);
    credits_received_.add(eng.now(), 1);
    // Credit progress: the path to this peer is alive, so the
    // retransmission backoff and the reroute-grant budget reset.
    p.retry_rounds = 0;
    p.reroute_grants = 0;
    p.credits.release();
    if (p.outstanding.empty()) wake_flush_waiters(p);
    if (cfg_.hw_retransmit) {
      // Cancel-on-ack: the credit invalidates the armed timer.  While
      // bursts remain outstanding a fresh timer is armed; once the queue
      // drains the heap holds nothing for this peer — an idle card
      // schedules zero defensive events.
      if (p.outstanding.empty()) {
        p.retransmit_timer.cancel();
      } else {
        arm_retransmit_timer(p);
      }
    }
    return;
  }
  assert(frame.kind == net::FrameKind::kData);

  // Ingest at the card's network rate (plus the shared bus, prototype).
  const Time ingested = book_stage(net_rx_, frame.wire) + kCardLatency;
  tracer().span(trace::Category::kInic, node_.id(), "inic/rx_ingest",
                eng.now(), ingested - eng.now(),
                static_cast<std::int64_t>(frame.wire.count()));

  eng.schedule_at(ingested, [this, frame] {
    Peer& p = peer(frame.src);
    if (p.completed(frame.flow)) {
      // Retransmission of a burst whose message was already delivered
      // (its credit was lost in flight): re-credit so the sender retires
      // it, but never re-assemble — the inbox sees each message once.
      duplicates_dropped_.add(node_.engine().now(), 1);
      send_credit(frame.src, frame.flow, frame.seq);
      return;
    }
    auto it = p.assembling.find(frame.flow);
    if (it == p.assembling.end() && frame.context) {
      // Take the Message, do not copy it: each header is consumed here
      // exactly once.  A duplicate header finds its stream assembling
      // (seq < next_seq) or completed, so no path reads its payload again.
      it = p.assembling
               .try_emplace(frame.flow, InboundStream{
                   .assembling = std::move(*std::static_pointer_cast<
                                           proto::Message>(frame.context))})
               .first;
    }
    if (it == p.assembling.end() || frame.seq > it->second.next_seq) {
      // Gap: an earlier burst (possibly the header) was lost.  Drop
      // without credit; the sender's go-back-N resends from the gap.
      duplicates_dropped_.add(node_.engine().now(), 1);
      return;
    }
    InboundStream& stream = it->second;
    if (frame.seq < stream.next_seq) {
      // Duplicate of an already-consumed burst (its credit was lost):
      // re-credit but do not consume.
      duplicates_dropped_.add(node_.engine().now(), 1);
      send_credit(frame.src, frame.flow, frame.seq);
      return;
    }

    // In-order burst: consume and credit.
    send_credit(frame.src, frame.flow, frame.seq);
    stream.next_seq += frame.payload.count();
    assert(stream.next_seq <= stream.assembling.size.count());
    if (stream.next_seq == stream.assembling.size.count()) {
      proto::Message msg = std::move(stream.assembling);
      p.assembling.erase(it);
      p.mark_completed(frame.flow);
      if (recv_transform_) {
        msg.payload = recv_transform_(std::move(msg.payload));
      }
      msg.delivered_at = node_.engine().now();
      tracer().instant(trace::Category::kInic, node_.id(),
                       "inic/msg_complete", node_.engine().now(),
                       static_cast<std::int64_t>(msg.size.count()));
      accept_message(std::move(msg));
    }
  });
}

void InicCard::arm_trigger(std::uint64_t tag, std::size_t expected,
                           TriggerAction action) {
  if (!is_trigger_tag(tag)) {
    throw std::invalid_argument("arm_trigger: tag outside trigger tag space");
  }
  if (expected == 0) {
    throw std::invalid_argument("arm_trigger: expected count must be > 0");
  }
  Trigger& trig = triggers_[tag];
  if (trig.state != Trigger::State::kStashed) {
    throw std::logic_error("arm_trigger: tag already armed or retired");
  }
  sim::Engine& eng = node_.engine();
  std::vector<proto::Message> pending = std::exchange(trig.stash, {});
  trig.state = Trigger::State::kArmed;
  trig.remaining = expected;
  trig.action = std::move(action);
  triggers_armed_.add(eng.now(), 1);
  tracer().instant(trace::Category::kCollective, node_.id(),
                   "coll/trigger_arm", eng.now(),
                   static_cast<std::int64_t>(expected));
  // Replay messages that beat the arm (a fast subtree finishing before
  // this rank entered the collective).
  for (auto& m : pending) accept_message(std::move(m));
}

void InicCard::accept_message(proto::Message msg) {
  if (!is_trigger_tag(msg.tag)) {
    card_inbox_.send_now(std::move(msg));
    return;
  }
  sim::Engine& eng = node_.engine();
  Trigger& trig = triggers_[msg.tag];
  switch (trig.state) {
    case Trigger::State::kArmed:
      fire_trigger(trig, std::move(msg));
      return;
    case Trigger::State::kRetired:
      // Late duplicate of an already-completed trigger (e.g. a fallback
      // re-carry of a message whose original also landed): swallow it.
      trigger_dups_.add(eng.now(), 1);
      tracer().instant(trace::Category::kCollective, node_.id(),
                       "coll/trigger_late_drop", eng.now());
      return;
    case Trigger::State::kStashed:
      trig.stash.push_back(std::move(msg));
      tracer().instant(trace::Category::kCollective, node_.id(),
                       "coll/trigger_stash", eng.now());
      return;
  }
}

void InicCard::fire_trigger(Trigger& trig, proto::Message msg) {
  sim::Engine& eng = node_.engine();
  if (!trig.seen_srcs.insert(msg.src).second) {
    // Second arrival from the same source (fallback duplicate after an
    // at-least-once re-carry): the combine must run exactly once.
    trigger_dups_.add(eng.now(), 1);
    tracer().instant(trace::Category::kCollective, node_.id(),
                     "coll/trigger_dup_drop", eng.now(), msg.src);
    return;
  }
  assert(trig.remaining > 0);
  --trig.remaining;
  const bool last = trig.remaining == 0;
  trigger_fires_.add(eng.now(), 1);
  tracer().instant(trace::Category::kCollective, node_.id(),
                   "coll/trigger_fire", eng.now(),
                   static_cast<std::int64_t>(trig.remaining));
  // Retire before invoking: the action may post sends or arm other tags,
  // and a retired entry must already swallow this tag's late duplicates.
  TriggerAction action = last ? std::move(trig.action) : trig.action;
  if (last) {
    trig = Trigger{};
    trig.state = Trigger::State::kRetired;
  }
  action(std::move(msg), last);
}

std::size_t InicCard::armed_triggers() const {
  std::size_t n = 0;
  for (const auto& [tag, trig] : triggers_) {
    n += trig.state == Trigger::State::kArmed;
  }
  return n;
}

std::size_t InicCard::stashed_trigger_messages() const {
  std::size_t n = 0;
  for (const auto& [tag, trig] : triggers_) n += trig.stash.size();
  return n;
}

void InicCard::send_credit(int dst, std::uint32_t flow, std::uint64_t seq) {
  net::Frame credit;
  credit.src = node_.id();
  credit.dst = dst;
  credit.payload = Bytes::zero();
  credit.wire = Bytes(84);  // minimum Ethernet frame + framing overhead
  credit.packet_count = 1;
  credit.kind = net::FrameKind::kControl;
  credit.flow = flow;  // which burst this credit acknowledges
  credit.seq = seq;
  // Control frames slot into the transmit stream like any other packet.
  const Time tx_done = book_stage(net_tx_, credit.wire);
  node_.engine().schedule_at(tx_done + kCardLatency,
                             [this, credit] { network_.inject(credit); });
}

sim::Process InicCard::compute_offload(Bytes data, Bandwidth kernel_rate,
                                       std::any* payload,
                                       const Transform& kernel_fn) {
  sim::Engine& eng = node_.engine();
  Time in_done, out_done;
  if (card_bus_) {
    // Prototype: no separate path — both directions cross the shared
    // card bus alongside any network traffic.
    in_done = book_stage(host_dma_, data);
    out_done = book_stage(host_dma_, data);
  } else {
    // Ideal card: a dedicated host-memory path for the accelerator.
    if (!offload_path_) {
      offload_path_ = std::make_unique<sim::FifoResource>(
          eng, cfg_.host_dma_rate,
          "inic-offload-" + std::to_string(node_.id()));
    }
    in_done = offload_path_->enqueue(data);
    out_done = offload_path_->enqueue(data);
  }
  // The kernel pipelines with the transfers (cut-through); it only
  // extends the critical path when slower than the memory path.
  const Time kernel_done =
      in_done - transfer_time(data, cfg_.host_dma_rate) +
      transfer_time(data, kernel_rate) + kCardLatency;
  const Time done = std::max({in_done, kernel_done, out_done});

  tracer().span(trace::Category::kInic, node_.id(), "inic/offload",
                eng.now(), std::max(done, eng.now()) - eng.now(),
                static_cast<std::int64_t>(data.count()));
  if (payload && kernel_fn) {
    *payload = kernel_fn(std::move(*payload));
  }
  co_await sim::DelayUntil{eng, std::max(done, eng.now())};
}

sim::Process InicCard::dma_to_host(Bytes size) {
  sim::Engine& eng = node_.engine();
  const Time done = book_stage(host_dma_, size);
  bytes_to_host_.add(eng.now(), size.count());
  tracer().span(trace::Category::kInic, node_.id(), "inic/dma_to_host",
                eng.now(), done - eng.now(),
                static_cast<std::int64_t>(size.count()));
  co_await sim::DelayUntil{eng, done};
}

sim::Process InicCard::dma_from_host(Bytes size) {
  sim::Engine& eng = node_.engine();
  const Time done = book_stage(host_dma_, size);
  tracer().span(trace::Category::kInic, node_.id(), "inic/dma_from_host",
                eng.now(), done - eng.now(),
                static_cast<std::int64_t>(size.count()));
  co_await sim::DelayUntil{eng, done};
}

void InicCard::accumulate_for_host(std::size_t bucket, Bytes amount) {
  Bytes& acc = bucket_accumulated_[bucket];
  acc += amount;
  while (acc >= cfg_.host_delivery_threshold) {
    acc -= cfg_.host_delivery_threshold;
    const Time done = book_stage(host_dma_, cfg_.host_delivery_threshold);
    bytes_to_host_.add(node_.engine().now(),
                       cfg_.host_delivery_threshold.count());
    if (done > last_host_delivery_) last_host_delivery_ = done;
  }
}

sim::Process InicCard::flush_to_host() {
  for (auto& [bucket, acc] : bucket_accumulated_) {
    if (acc > Bytes::zero()) {
      const Time done = book_stage(host_dma_, acc);
      bytes_to_host_.add(node_.engine().now(), acc.count());
      if (done > last_host_delivery_) last_host_delivery_ = done;
      acc = Bytes::zero();
    }
  }
  const Time target = std::max(last_host_delivery_, node_.engine().now());
  co_await sim::DelayUntil{node_.engine(), target};
}

}  // namespace acc::inic
