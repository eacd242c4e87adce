#include "inic/card.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace acc::inic {

namespace {

std::uint64_t stream_key(int src, std::uint32_t msg_id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         msg_id;
}

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

sim::Semaphore& InicCard::credits_for(int dst) {
  auto& slot = credits_[dst];
  if (!slot) {
    slot = std::make_unique<sim::Semaphore>(node_.engine(), cfg_.credit_bursts);
  }
  return *slot;
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

  const std::uint32_t msg_id = static_cast<std::uint32_t>(next_msg_id_++);
  auto header = std::make_shared<MsgHeader>(MsgHeader{
      msg_id, tag, size.count(), std::move(transformed), eng.now()});

  sim::Semaphore& credits = credits_for(dst);
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
    co_await credits.acquire();
    if (peer_unreachable(dst)) {
      // The retry budget ran out while we were blocked on a credit (the
      // credits were force-released to wake us); surface the failure.
      credits.release();
      throw PeerUnreachableError(node_.id(), dst);
    }

    const std::size_t packets =
        (burst + cfg_.packet.count() - 1) / cfg_.packet.count();
    net::Frame frame;
    frame.src = node_.id();
    frame.dst = dst;
    frame.payload = Bytes(burst);
    frame.wire = net::burst_wire_size(Bytes(burst), packets,
                                      cfg_.per_packet_overhead);
    frame.packet_count = packets;
    frame.flow = msg_id;
    frame.kind = net::FrameKind::kData;
    frame.seq = seq;
    if (first) frame.context = header;
    first = false;

    // Stage 2: card memory -> MAC, not before the data is on the card.
    const Time tx_done = transmit_burst(frame, in_card + cfg_.card_latency);
    bursts_sent_.add(eng.now(), 1);
    track_outstanding(dst, frame);

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
      transfer_time(cfg_.packet + cfg_.per_packet_overhead, net_tx_.rate());
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

void InicCard::track_outstanding(int dst, const net::Frame& frame) {
  auto& queue = outstanding_[dst];
  queue.push_back(OutstandingBurst{frame, node_.engine().now()});
  if (cfg_.hw_retransmit && queue.size() == 1) {
    arm_retransmit_timer(dst);
  }
}

void InicCard::arm_retransmit_timer(int dst) {
  cancel_retransmit_timer(dst);  // at most one armed timer per peer
  const std::uint64_t generation = ++retransmit_generation_[dst];
  retransmit_timers_[dst] = node_.engine().schedule_cancelable(
      effective_retransmit_timeout(dst),
      [this, dst, generation] { check_retransmit(dst, generation); });
}

void InicCard::cancel_retransmit_timer(int dst) {
  auto it = retransmit_timers_.find(dst);
  if (it != retransmit_timers_.end()) it->second.cancel();
}

Time InicCard::effective_retransmit_timeout(int dst) const {
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
      net::burst_wire_size(cfg_.burst, packets, cfg_.per_packet_overhead);
  const Time rtt =
      network_.path_latency(node_.id(), dst, burst_wire) +
      network_.path_latency(dst, node_.id(), Bytes(84));  // credit frame
  Time timeout = std::max(cfg_.retransmit_timeout, rtt * 2.0);
  // A floor above the configured cap would otherwise make backoff
  // non-monotonic; the cap rises with it.
  const Time cap = std::max(cfg_.retransmit_timeout_cap, timeout);
  const auto it = retry_rounds_.find(dst);
  const std::uint32_t rounds = it == retry_rounds_.end() ? 0 : it->second;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    timeout = timeout * cfg_.retransmit_backoff;
    if (timeout >= cap) {
      return cap;
    }
  }
  return timeout;
}

void InicCard::declare_peer_unreachable(int dst) {
  sim::Engine& eng = node_.engine();
  auto it = outstanding_.find(dst);
  const std::size_t abandoned =
      it == outstanding_.end() ? 0 : it->second.size();
  if (it != outstanding_.end()) it->second.clear();
  cancel_retransmit_timer(dst);
  unreachable_peers_.insert(dst);
  peer_unreachable_.add(eng.now(), 1);
  tracer().instant(trace::Category::kInic, node_.id(),
                   "inic/peer_unreachable", eng.now(), dst);
  // Each abandoned burst held one credit; return them so senders blocked
  // in credits.acquire() wake up and observe the failure.
  sim::Semaphore& credits = credits_for(dst);
  for (std::size_t i = 0; i < abandoned; ++i) {
    credits.release();
  }
  wake_flush_waiters(dst);
}

void InicCard::wake_flush_waiters(int dst) {
  auto it = flush_waiters_.find(dst);
  if (it == flush_waiters_.end()) return;
  // Swap out first: a resumed waiter may re-park itself under this key.
  std::vector<std::shared_ptr<sim::Event>> waiters = std::move(it->second);
  flush_waiters_.erase(it);
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
    const auto it = outstanding_.find(dst);
    if (it == outstanding_.end() || it->second.empty()) co_return;
    auto ev = std::make_shared<sim::Event>(node_.engine());
    flush_waiters_[dst].push_back(ev);
    co_await ev->wait();
  }
}

void InicCard::check_retransmit(int dst, std::uint64_t generation) {
  if (generation != retransmit_generation_[dst]) return;  // superseded
  auto it = outstanding_.find(dst);
  if (it == outstanding_.end() || it->second.empty()) return;
  sim::Engine& eng = node_.engine();
  const OutstandingBurst& front = it->second.front();
  if (eng.now() - front.sent_at < effective_retransmit_timeout(dst)) {
    // Credit progress happened since the timer was armed; re-check later.
    arm_retransmit_timer(dst);
    return;
  }
  std::uint32_t& rounds = retry_rounds_[dst];
  if (cfg_.max_retries > 0 && rounds >= cfg_.max_retries) {
    // Escalation before surrender: a dry retry budget is end-to-end
    // evidence the current path is dead.  If the fabric can re-converge
    // onto an alternate, reset the round counter and fall through to
    // retransmit over the new path; credit progress resets the grant
    // budget.  Only when no alternate exists (or the grants are spent)
    // does the failure surface as PeerUnreachableError.
    std::uint32_t& grants = reroute_grants_[dst];
    if (grants < cfg_.max_reroutes &&
        network_.request_reroute(node_.id(), dst)) {
      ++grants;
      rounds = 0;
      reroutes_.add(eng.now(), 1);
      tracer().instant(trace::Category::kInic, node_.id(), "inic/reroute",
                       eng.now(), dst);
    } else {
      declare_peer_unreachable(dst);
      return;
    }
  }
  ++rounds;
  // Go-back-N: resend every outstanding burst to this destination in
  // order, refreshing their timestamps.  Consecutive fruitless rounds
  // back the timer off exponentially (credit progress resets it).
  for (OutstandingBurst& burst : it->second) {
    transmit_burst(burst.frame, eng.now() + cfg_.card_latency);
    burst.sent_at = eng.now();
    retransmits_.add(eng.now(), 1);
    tracer().instant(trace::Category::kInic, node_.id(), "inic/retransmit",
                     eng.now(), static_cast<std::int64_t>(burst.frame.seq));
  }
  arm_retransmit_timer(dst);
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
    auto it = outstanding_.find(frame.src);
    if (it == outstanding_.end() || it->second.empty()) return;
    auto& queue = it->second;
    auto burst = std::find_if(queue.begin(), queue.end(),
                              [&frame](const OutstandingBurst& b) {
                                return b.frame.flow == frame.flow &&
                                       b.frame.seq == frame.seq;
                              });
    if (burst == queue.end()) return;
    queue.erase(burst);
    credits_received_.add(eng.now(), 1);
    // Credit progress: the path to this peer is alive, so the
    // retransmission backoff and the reroute-grant budget reset.
    retry_rounds_[frame.src] = 0;
    reroute_grants_[frame.src] = 0;
    credits_for(frame.src).release();
    if (it->second.empty()) wake_flush_waiters(frame.src);
    if (cfg_.hw_retransmit) {
      // Cancel-on-ack: the credit invalidates the armed timer.  While
      // bursts remain outstanding a fresh timer is armed; once the queue
      // drains the heap holds nothing for this peer — an idle card
      // schedules zero defensive events.
      if (it->second.empty()) {
        cancel_retransmit_timer(frame.src);
      } else {
        arm_retransmit_timer(frame.src);
      }
    }
    return;
  }
  assert(frame.kind == net::FrameKind::kData);

  // Ingest at the card's network rate (plus the shared bus, prototype).
  const Time ingested = book_stage(net_rx_, frame.wire) + cfg_.card_latency;
  tracer().span(trace::Category::kInic, node_.id(), "inic/rx_ingest",
                eng.now(), ingested - eng.now(),
                static_cast<std::int64_t>(frame.wire.count()));

  eng.schedule_at(ingested, [this, frame] {
    const std::uint64_t key = stream_key(frame.src, frame.flow);
    if (completed_streams_.count(key)) {
      // Retransmission of a burst whose message was already delivered
      // (its credit was lost in flight): re-credit so the sender retires
      // it, but never re-assemble — the inbox sees each message once.
      duplicates_dropped_.add(node_.engine().now(), 1);
      send_credit(frame.src, frame.flow, frame.seq);
      return;
    }
    InboundStream& stream = inbound_[key];

    if (frame.context && !stream.started) {
      auto header = std::static_pointer_cast<MsgHeader>(frame.context);
      stream.started = true;
      stream.remaining = header->total_bytes;
      stream.next_seq = 0;
      stream.assembling = proto::Message{};
      stream.assembling.src = frame.src;
      stream.assembling.dst = node_.id();
      stream.assembling.id = header->msg_id;
      stream.assembling.tag = header->tag;
      stream.assembling.size = Bytes(header->total_bytes);
      stream.assembling.payload = header->payload;
      stream.assembling.sent_at = header->sent_at;
    }

    if (!stream.started || frame.seq > stream.next_seq) {
      // Gap: an earlier burst (possibly the header) was lost.  Drop
      // without credit; the sender's go-back-N resends from the gap.
      if (!stream.started) inbound_.erase(key);
      duplicates_dropped_.add(node_.engine().now(), 1);
      return;
    }
    if (frame.seq < stream.next_seq) {
      // Duplicate of an already-consumed burst (its credit was lost):
      // re-credit but do not consume.
      duplicates_dropped_.add(node_.engine().now(), 1);
      send_credit(frame.src, frame.flow, frame.seq);
      return;
    }

    // In-order burst: consume and credit.
    send_credit(frame.src, frame.flow, frame.seq);
    assert(stream.remaining >= frame.payload.count());
    stream.next_seq += frame.payload.count();
    stream.remaining -= frame.payload.count();
    if (stream.remaining == 0) {
      proto::Message msg = std::move(stream.assembling);
      inbound_.erase(key);
      completed_streams_.insert(key);
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
  if (triggers_.count(tag) != 0 || retired_triggers_.count(tag) != 0) {
    throw std::logic_error("arm_trigger: tag already armed or retired");
  }
  sim::Engine& eng = node_.engine();
  triggers_.emplace(tag, Trigger{expected, std::move(action), {}});
  triggers_armed_.add(eng.now(), 1);
  tracer().instant(trace::Category::kCollective, node_.id(),
                   "coll/trigger_arm", eng.now(),
                   static_cast<std::int64_t>(expected));
  // Replay messages that beat the arm (a fast subtree finishing before
  // this rank entered the collective).
  auto sit = trigger_stash_.find(tag);
  if (sit != trigger_stash_.end()) {
    std::deque<proto::Message> pending = std::move(sit->second);
    trigger_stash_.erase(sit);
    for (auto& m : pending) accept_message(std::move(m));
  }
}

void InicCard::accept_message(proto::Message msg) {
  if (!is_trigger_tag(msg.tag)) {
    card_inbox_.send_now(std::move(msg));
    return;
  }
  const std::uint64_t tag = msg.tag;
  if (triggers_.count(tag) != 0) {
    fire_trigger(tag, std::move(msg));
    return;
  }
  sim::Engine& eng = node_.engine();
  if (retired_triggers_.count(tag) != 0) {
    // Late duplicate of an already-completed trigger (e.g. a fallback
    // re-carry of a message whose original also landed): swallow it.
    trigger_dups_.add(eng.now(), 1);
    tracer().instant(trace::Category::kCollective, node_.id(),
                     "coll/trigger_late_drop", eng.now());
    return;
  }
  trigger_stash_[tag].push_back(std::move(msg));
  tracer().instant(trace::Category::kCollective, node_.id(),
                   "coll/trigger_stash", eng.now());
}

void InicCard::fire_trigger(std::uint64_t tag, proto::Message msg) {
  sim::Engine& eng = node_.engine();
  auto it = triggers_.find(tag);
  assert(it != triggers_.end());
  Trigger& trig = it->second;
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
    triggers_.erase(it);
    retired_triggers_.insert(tag);
  }
  action(std::move(msg), last);
}

std::size_t InicCard::stashed_trigger_messages() const {
  std::size_t n = 0;
  for (const auto& [tag, q] : trigger_stash_) n += q.size();
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
  node_.engine().schedule_at(tx_done + cfg_.card_latency,
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
      transfer_time(data, kernel_rate) + cfg_.card_latency;
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
