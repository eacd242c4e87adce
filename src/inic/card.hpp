// The Intelligent NIC (INIC) device model — the paper's contribution.
//
// An InicCard is a network endpoint whose datapath is an FPGA pipeline
// between host memory and the wire (Figure 1b).  What makes it different
// from the StandardNic baseline:
//
//   * no interrupts: the FPGAs react to the MAC directly ("the virtual
//     elimination of interrupts from the communication path"), so
//     arriving data never waits on coalescing timers or host interrupt
//     service;
//   * application-specific protocol: sender-known transfer sizes, credit
//     (minimal-acknowledgement) flow control generated on the card, and
//     1024-byte packets on raw Ethernet — no slow start, no per-packet
//     host CPU cost;
//   * in-stream computation: a configurable transform is applied to each
//     message's payload as it flows through the card (local transpose,
//     bucket sort), "at zero cost" to the stream rate;
//   * rate structure from the paper's measurements: 80 MB/s host<->card,
//     90 MB/s card<->net, optionally all multiplexed over the ACEII's
//     single 132 MB/s on-card bus (prototype mode).
//
// Every stage charges its FIFO resource in full (contention) but hands
// off cut-through (latency), like the rest of the simulator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/units.hpp"
#include "hw/node.hpp"
#include "inic/config.hpp"
#include "net/frame.hpp"
#include "net/network.hpp"
#include "proto/message.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"
#include "trace/counters.hpp"

namespace acc::inic {

/// Thrown out of send_stream() when the go-back-N retry budget
/// (InicConfig::max_retries) is exhausted with no credit progress: the
/// hardware gives up and surfaces the dead peer to the application layer
/// instead of retransmitting forever.
class PeerUnreachableError : public std::runtime_error {
 public:
  PeerUnreachableError(int node, int peer)
      : std::runtime_error("INIC " + std::to_string(node) +
                           ": peer " + std::to_string(peer) +
                           " unreachable (go-back-N retry budget exhausted)"),
        node_(node),
        peer_(peer) {}
  int node() const { return node_; }
  int peer() const { return peer_; }

 private:
  int node_;
  int peer_;
};

class InicCard : public net::Endpoint {
 public:
  /// Transform applied by the FPGA to a message payload in-stream.
  using Transform = std::function<std::any(std::any)>;

  InicCard(hw::Node& node, net::Network& network, const InicConfig& cfg);

  // ------------------------------------------------------------------
  // Send side
  // ------------------------------------------------------------------

  /// Streams `size` bytes from host memory through the card to `dst`:
  /// host DMA at the host-DMA rate, in-stream transform, packetization,
  /// credit-windowed transmission at the net rate.  Completes when the
  /// last burst has left the card.  Bursts of different destinations
  /// interleave, so concurrent send_streams share both stages.
  sim::Process send_stream(int dst, Bytes size, std::uint64_t tag = 0,
                           std::any payload = {});

  /// Installs the send-side in-stream transform (e.g. local transpose).
  void set_send_transform(Transform t) { send_transform_ = std::move(t); }

  // ------------------------------------------------------------------
  // Compute-accelerator mode (Section 2)
  // ------------------------------------------------------------------

  /// Runs an application kernel on the FPGAs over `data` bytes of host
  /// memory: host -> card, kernel at `kernel_rate`, card -> host.  On
  /// the ideal card "a separate path to host memory is configured to
  /// allow normal network operations", so the offload does NOT contend
  /// with the streaming datapath; on the ACEII prototype every byte
  /// still crosses the single shared card bus.  `payload` (if any) is
  /// transformed in place by `kernel_fn`.
  sim::Process compute_offload(Bytes data, Bandwidth kernel_rate,
                               std::any* payload = nullptr,
                               const Transform& kernel_fn = {});

  // ------------------------------------------------------------------
  // Receive side
  // ------------------------------------------------------------------

  /// Messages fully received into INIC memory (before host delivery).
  sim::Channel<proto::Message>& card_inbox() { return card_inbox_; }

  /// Installs the receive-side in-stream transform (e.g. bucket sort,
  /// final permutation placement).
  void set_recv_transform(Transform t) { recv_transform_ = std::move(t); }

  /// Bulk card-to-host DMA of `size` bytes (the FFT path: "the final
  /// copy of data to the host must wait on all data to be received").
  sim::Process dma_to_host(Bytes size);

  /// Bulk host-to-card DMA of `size` bytes that stays on the card (e.g.
  /// a node's own transpose block, which crosses to the card for the
  /// in-stream permutation but never touches the network).
  sim::Process dma_from_host(Bytes size);

  /// Threshold-batched host delivery (the sort path, Equation 15):
  /// `accumulate_for_host` records `amount` landing in hardware bucket
  /// `bucket`; whenever a bucket crosses the 64 KB threshold the card
  /// books a DMA of that chunk.  flush_to_host() drains remainders and
  /// completes when every booked delivery has landed in host memory.
  void accumulate_for_host(std::size_t bucket, Bytes amount);
  sim::Process flush_to_host();

  // ------------------------------------------------------------------
  // Collective trigger primitives
  // ------------------------------------------------------------------
  //
  // A trigger is an armed (tag -> action) entry in a small on-card
  // table.  When a fully-assembled message with a matching tag arrives,
  // the card invokes the action directly — no host CPU time is charged
  // and no interrupt is scheduled.  This is the hardware building block
  // the NIC-resident collective engine (inic/collective.hpp) composes
  // into barrier/broadcast/allreduce state machines.

  /// Tags with this bit set are routed through the trigger table instead
  /// of the host-visible card inbox.  No application tag space uses it.
  static constexpr std::uint64_t kTriggerTagSpace = 1ULL << 62;
  static constexpr bool is_trigger_tag(std::uint64_t tag) {
    return (tag & kTriggerTagSpace) != 0;
  }

  /// Invoked once per distinct-source matching message; `last` is true on
  /// the arrival that exhausts the expected count (the trigger retires).
  using TriggerAction = std::function<void(proto::Message&&, bool last)>;

  /// Arms a trigger: the next `expected` matching messages (one per
  /// distinct source — duplicates are dropped, giving exactly-once
  /// combine semantics) each invoke `action`.  Messages that arrived
  /// before arming are stashed by tag and replayed here.  `tag` must be
  /// in the trigger tag space and not already armed or retired.
  void arm_trigger(std::uint64_t tag, std::size_t expected,
                   TriggerAction action);

  /// Terminal delivery point for fully-received messages (both the card
  /// datapath and SimCluster's degraded TCP fallback pump land here):
  /// trigger-space tags match the trigger table; everything else goes to
  /// card_inbox() exactly as before.
  void accept_message(proto::Message msg);

  /// Trigger-table introspection (leak checks in tests).
  std::size_t armed_triggers() const;
  std::size_t stashed_trigger_messages() const;
  std::uint64_t trigger_fires() const { return trigger_fires_.value(); }
  std::uint64_t trigger_duplicates() const { return trigger_dups_.value(); }

  // ------------------------------------------------------------------
  // Fault / reset handling
  // ------------------------------------------------------------------

  /// Takes the card offline for `duration` — the FPGA bitstream
  /// reconfiguration window.  While resetting, arriving frames (data and
  /// credits) are lost at the MAC, transmissions stall, and every DMA
  /// stage books after the window; overlapping calls extend the window.
  /// Peers recover through their go-back-N; SimCluster's degraded mode
  /// reroutes new transfers over TCP for the duration.
  void begin_reset(Time duration);
  bool in_reset() const { return node_.engine().now() < paused_until_; }
  Time reset_done_at() const { return paused_until_; }

  /// True once the retry budget to `dst` was exhausted; subsequent
  /// send_stream() calls to it fail fast with PeerUnreachableError.
  bool peer_unreachable(int dst) const {
    const auto it = peers_.find(dst);
    return it != peers_.end() && it->second.unreachable;
  }

  /// Delivery confirmation: completes when every outstanding burst to
  /// `dst` has been credited back (go-back-N has nothing left to guard),
  /// throws PeerUnreachableError if the peer is declared dead while
  /// waiting.  send_stream() itself is fire-and-forget past the MAC —
  /// a single-burst message "succeeds" at wire time even if the frame
  /// then dies on a dark path — so path-critical senders (the collective
  /// engine's tree-repair sends) await this to learn the difference.
  /// Immediately complete when hardware retransmission is off: without
  /// go-back-N nothing ever retires the outstanding queue.
  sim::Process flush(int dst);

  // ------------------------------------------------------------------
  // Endpoint interface + stats
  // ------------------------------------------------------------------

  void deliver(const net::Frame& frame) override;

  std::uint64_t bursts_sent() const { return bursts_sent_.value(); }
  std::uint64_t credits_received() const { return credits_received_.value(); }
  std::uint64_t retransmits() const { return retransmits_.value(); }
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_.value(); }
  /// Receive state held for `src`: streams still being assembled plus
  /// completed ids above its watermark (bounded-state checks in tests).
  std::size_t receive_state(int src) const {
    const auto it = peers_.find(src);
    if (it == peers_.end()) return 0;
    return it->second.assembling.size() + it->second.done_above.size();
  }
  std::uint64_t crc_drops() const { return crc_dropped_.value(); }
  std::uint64_t reset_drops() const { return reset_dropped_.value(); }
  std::uint64_t peers_lost() const { return peer_unreachable_.value(); }
  /// Reroutes granted by the fabric after dry go-back-N retry budgets.
  std::uint64_t reroutes() const { return reroutes_.value(); }
  Bytes bytes_to_host() const { return Bytes(bytes_to_host_.value()); }
  const InicConfig& config() const { return cfg_; }
  /// Largest hardware bucket-sort fan-out the FPGAs hold: the
  /// prototype's Calibration::prototype_max_buckets, unbounded on the
  /// idealized card.
  std::size_t max_hw_buckets() const {
    return cfg_.prototype ? cal_.prototype_max_buckets
                          : std::numeric_limits<std::size_t>::max();
  }
  hw::Node& node() { return node_; }
  net::Network& network() { return network_; }

 private:
  /// A message assembled from its in-order bursts; the first carries it.
  struct InboundStream {
    std::uint64_t next_seq = 0;  // next expected byte (dedup/gap detection)
    proto::Message assembling;
  };
  struct OutstandingBurst {
    net::Frame frame;
    Time sent_at;
  };
  /// Everything the card keeps per peer node.  As a destination: the
  /// credit window, the bursts holding its credits, and the go-back-N
  /// state guarding them.  As a source: which of its messages completed
  /// and which are still being assembled.
  struct Peer {
    Peer(sim::Engine& eng, int node, std::size_t credit_bursts)
        : node(node), credits(eng, credit_bursts) {}
    const int node;
    // ---- send side ----
    std::uint32_t next_msg_id = 1;  // ids are per (src, dst) stream
    sim::Semaphore credits;  // one per burst in flight
    // Bursts awaiting their credit, oldest first.  A burst is tracked only
    // once it holds a credit, so this never exceeds credit_bursts.
    std::vector<OutstandingBurst> outstanding;
    sim::TimerHandle retransmit_timer;  // at most one armed per peer
    std::uint32_t retry_rounds = 0;     // consecutive fruitless rounds
    std::uint32_t reroute_grants = 0;   // reroutes since the last credit
    bool unreachable = false;           // retry budget exhausted
    // flush() waiters; each entry is one coroutine's private event
    // (single waiter each, shared_ptr so a waker outlives it).
    std::vector<std::shared_ptr<sim::Event>> flush_waiters;
    // ---- receive side ----
    // Ids below the watermark have all completed; `done_above` holds the
    // completed ids above it, sorted.  Retransmits of completed messages
    // are re-credited, never re-assembled.  Both sets stay as small as the
    // window of messages the sender has in flight.
    std::uint32_t watermark = 1;
    std::vector<std::uint32_t> done_above;
    std::map<std::uint32_t, InboundStream> assembling;  // keyed by id

    bool completed(std::uint32_t id) const {
      return id < watermark ||
             std::binary_search(done_above.begin(), done_above.end(), id);
    }
    void mark_completed(std::uint32_t id);
  };
  /// One trigger-table entry per tag.  Messages that beat the arm are
  /// stashed in arrival order; arming replays them; the arrival that
  /// exhausts the count retires the tag, and a retired entry keeps
  /// nothing but its state, so late duplicates are swallowed rather than
  /// stashed forever.  Retired entries stay for the card's life: one per
  /// armed tag, so at most two per collective op on a card, each an empty
  /// map node.  No watermark can replace them, because
  /// CollectiveEngine::run takes op ids the caller chooses and leaves,
  /// roots and reduce ops arm only some tags, so nothing tells a
  /// never-armed tag from a retired one.
  struct Trigger {
    enum class State { kStashed, kArmed, kRetired };
    State state = State::kStashed;
    std::vector<proto::Message> stash;  // kStashed
    std::size_t remaining = 0;          // kArmed: arrivals still expected
    TriggerAction action;               // kArmed
    std::set<int> seen_srcs;            // kArmed: exactly-once per source
  };

  /// Books `size` on a stage resource, plus the shared card bus on the
  /// prototype; returns the completion time of the later.
  Time book_stage(sim::FifoResource& stage, Bytes size);

  trace::Counter& counter(const char* name);
  trace::Counter& trigger_counter(const char* name);
  trace::Tracer& tracer();

  /// Runs `msg` through an armed trigger (dedup, countdown,
  /// retire-on-exhaustion, action invocation).
  void fire_trigger(Trigger& trig, proto::Message msg);

  /// The record for `node`, created on first use.
  Peer& peer(int node);
  /// Returns a credit that acknowledges one specific burst: (flow, seq)
  /// identify it so the sender retires exactly that burst from its
  /// outstanding queue (an anonymous credit could retire a still-lost
  /// earlier burst and silently drop it from retransmission).
  void send_credit(int dst, std::uint32_t flow, std::uint64_t seq);

  /// Books a burst on the transmit stage(s) and schedules its injection
  /// (cut-through); shared by first transmission and retransmission.
  Time transmit_burst(const net::Frame& frame, Time not_before);
  /// Registers a transmitted burst for credit matching and (optionally)
  /// retransmission.
  void track_outstanding(Peer& p, const net::Frame& frame);
  /// Replaces the peer's go-back-N timer.  Every path that arms a timer
  /// cancels the pending one first (or runs from it), so the timer that
  /// fires is always the current one.
  void arm_retransmit_timer(Peer& p);
  void check_retransmit(Peer& p);
  /// Current go-back-N timeout to `p`, including consecutive-round
  /// backoff.
  Time effective_retransmit_timeout(const Peer& p) const;
  /// Abandons all outstanding bursts to `p`, returns their credits (so
  /// blocked senders wake and observe the failure), and records the
  /// peer-unreachable event.
  void declare_peer_unreachable(Peer& p);
  /// Resumes flush() waiters parked on `p` (outstanding queue drained
  /// or peer declared unreachable; the waiter re-checks which).
  void wake_flush_waiters(Peer& p);

  hw::Node& node_;
  net::Network& network_;
  InicConfig cfg_;
  const model::Calibration& cal_;  // the node's: rates, packet, thresholds

  sim::FifoResource host_dma_;  // host <-> card stream (both directions)
  sim::FifoResource net_tx_;    // card -> wire
  sim::FifoResource net_rx_;    // wire -> card
  std::unique_ptr<sim::FifoResource> card_bus_;  // prototype only
  // Lazily-created second host-memory path for compute offload (ideal
  // card only; the prototype has no separate path).
  std::unique_ptr<sim::FifoResource> offload_path_;

  Transform send_transform_;
  Transform recv_transform_;

  sim::Channel<proto::Message> card_inbox_;
  std::map<int, Peer> peers_;  // keyed by peer node

  std::map<std::uint64_t, Trigger> triggers_;  // the collective trigger table

  // Threshold-batched host delivery state.
  std::map<std::size_t, Bytes> bucket_accumulated_;
  Time last_host_delivery_ = Time::zero();

  // Fault/reset window: the card is offline until this instant.
  Time paused_until_ = Time::zero();

  // Offload-phase statistics are trace counters (shared with reports).
  trace::Counter& bursts_sent_;
  trace::Counter& credits_received_;
  trace::Counter& retransmits_;
  trace::Counter& duplicates_dropped_;
  trace::Counter& bytes_to_host_;
  trace::Counter& crc_dropped_;
  trace::Counter& reset_dropped_;
  trace::Counter& peer_unreachable_;
  trace::Counter& reroutes_;
  trace::Counter& resets_;
  // Trigger counters live in Category::kCollective; they only emit trace
  // records while triggers are actually exercised, so host-backend runs
  // stay digest-identical.
  trace::Counter& triggers_armed_;
  trace::Counter& trigger_fires_;
  trace::Counter& trigger_dups_;
};

}  // namespace acc::inic
