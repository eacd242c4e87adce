// Routed cluster fabric: N endpoints attached to a graph of
// store-and-forward switches with per-output-port buffering and
// drop-tail loss.
//
// The shape of the graph comes from net::TopologyConfig (star, 2/3-level
// fat tree, 2D/3D torus — see net/topology.hpp); the default single-star
// fabric is event-for-event identical to the flat one-switch model the
// paper's 8-16 node prototype implies, so all earlier golden digests
// hold.  Multi-hop topologies forward hop by hop: every switch charges
// its forwarding latency, queues the frame in the chosen output port's
// buffer (drop-tail when full), serializes it at the port's line rate,
// and hands it across the link to the next switch or the destination
// host.
//
// The INIC protocol's no-loss argument (Section 4.1: "the total amount of
// data put into the network never exceeds the total size of the network
// buffers") and TCP's loss/timeout behaviour both hinge on this buffer
// model, so it is explicit: every output port has a byte-capacity buffer;
// a burst that does not fit is dropped whole and counted.
//
// Fault hooks (driven by src/fault/, but usable directly): per-host link
// up/down (gated at injection, both directions), interior switch-switch
// link up/down (gated at forwarding time), uniform and Gilbert–Elliott
// bursty loss, frame corruption (delivered but CRC-failed at the
// endpoint), per-port line-rate degradation, and per-port buffer shrink.
// All are deterministic per seed and inert until configured.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/gilbert_elliott.hpp"
#include "net/frame.hpp"
#include "net/lp_map.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "trace/counters.hpp"

namespace acc::sim {
class ParallelEngine;  // sim/parallel.hpp
}

namespace acc::net {

/// Anything that can terminate a link: a standard NIC or an INIC.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called when a frame has fully arrived at the device.
  virtual void deliver(const Frame& frame) = 0;
};

struct NetworkConfig {
  Bandwidth line_rate = Bandwidth::gbit_per_sec(1.0);
  Time link_latency = Time::micros(1.0);    // cable + PHY each way
  Time switch_latency = Time::micros(4.0);  // forwarding decision per hop
  Bytes port_buffer = Bytes::kib(512);      // output buffer per port
  TopologyConfig topology{};                // default: single star switch
  /// Fault-aware adaptive routing.  Off by default: static topology
  /// tables forever, no kRouting trace records.  When on, heartbeat
  /// probes (with hysteresis) and a consecutive-drop fast path declare
  /// interior links failed or recovered, and each declaration bumps the
  /// route epoch and re-converges the next-port tables (see
  /// Fabric::request_reroute for the end-to-end escalation path).  The
  /// detection tunables are constants in network.cpp (docs/NETWORK.md).
  /// Gilbert–Elliott burst loss is applied at injection, never at
  /// interior ports, so bursty loss cannot flap routes.
  bool adaptive_routing = false;
};

/// The routed fabric: every switch is a row of output ports, each with a
/// byte-capacity buffer (drop-tail admission), an egress serializer at
/// the port's (possibly degraded) line rate, and a link-state flag.
/// Ports face either a host or a peer switch; the fabric owns the
/// routing decision.  `Network` remains an alias for source
/// compatibility: a default-constructed config is a single star switch
/// with the exact semantics (and trace stream) of the original flat
/// model.
///
/// Every fabric runs on lanes, one per LP of its partition
/// (docs/ENGINE.md ownership rules): a switch's mutable state — ports,
/// buffers, egress serializers, per-lane counters — is touched only by
/// events executing on its lane's engine, and host-facing work (inject,
/// delivery) runs on the host's edge-switch lane.  An interior hop whose
/// peer switch is on another lane crosses via ParallelEngine::post() at
/// the link+switch latency (>= the partition's lookahead by
/// construction).  With more than one lane, fault hooks and adaptive
/// routing mutate state across lanes and are rejected
/// (std::logic_error / std::invalid_argument).
class Fabric {
 public:
  /// One-lane fabric on `eng`, over the topology cfg.topology builds for
  /// `ports` hosts.
  Fabric(sim::Engine& eng, std::size_t ports, const NetworkConfig& cfg = {});

  /// LP-partitioned fabric over an already materialized `plan` (built
  /// from cfg.topology), lane l on pe.lp(l).  `pe` must outlive the
  /// fabric.  A one-LP partition behaves exactly like the engine
  /// constructor on pe.lp(0).
  Fabric(sim::ParallelEngine& pe, const LpPartition& part, TopologyPlan plan,
         const NetworkConfig& cfg);

  /// Attaches the device that receives frames destined to `node`.
  void attach(int node, Endpoint& endpoint);

  /// Injects a frame whose transmit serialization *at the source device*
  /// is already accounted by the caller.  The fabric adds: ingress link
  /// latency, then per hop: switch forwarding latency, output-port
  /// buffering (with drop-tail loss, visible only through
  /// frames_dropped()), egress serialization at the port's line rate,
  /// and the egress link latency.  Senders learn of drops the way real
  /// ones do: by timeout.
  void inject(Frame frame);

  /// Per-port egress serialization resources (exposed so devices can rate
  /// their own transmit at the same line rate).
  Bandwidth line_rate() const { return cfg_.line_rate; }

  // ------------------------------------------------------------------
  // Topology and routing queries.
  // ------------------------------------------------------------------

  const TopologyConfig& topology() const { return cfg_.topology; }
  const TopologyPlan& plan() const { return plan_; }
  std::size_t switch_count() const { return plan_.switches.size(); }
  int switch_level(int sw) const {
    return plan_.switches.at(static_cast<std::size_t>(sw)).level;
  }

  /// Switch ids a src->dst frame visits, in order (>= 1 entries).
  std::vector<int> route(int src, int dst) const;
  /// Number of switches a src->dst frame traverses.
  std::size_t hop_count(int src, int dst) const { return route(src, dst).size(); }

  /// End-to-end latency of a `wire`-byte frame from src's device to
  /// dst's device over an *idle* fabric, at the ports' current (possibly
  /// degraded) rates: ingress link + per hop (switch latency +
  /// serialization + link).  wire = 0 gives the pure propagation floor.
  /// This is what protocol timers should seed from — on a single star it
  /// reduces to link + switch + serialization + link.  Follows the
  /// *live* tables, so after a re-convergence it prices the alternate
  /// route the frames actually take.
  Time path_latency(int src, int dst, Bytes wire = Bytes::zero()) const;

  // ------------------------------------------------------------------
  // Adaptive routing (NetworkConfig::adaptive_routing; inert while off).
  // ------------------------------------------------------------------

  bool adaptive_routing() const { return cfg_.adaptive_routing; }

  /// Times the routing plane re-converged (0 until a link-health change
  /// is declared).  Same seed + same fault plan → same epoch trajectory.
  std::uint64_t route_epoch() const { return route_epoch_; }

  /// Interior links currently declared failed by the routing plane
  /// (normalized (min, max) switch pairs, ascending).
  std::vector<std::pair<int, int>> links_declared_down() const;

  /// All output ports of `sw` that lie on some minimal path to `dst`
  /// over the links the routing plane believes are up — the ECMP
  /// candidate set re-convergence picks from (ascending port index ==
  /// ascending link id; the live table holds candidates[dst % n]).  If
  /// `dst` attaches at `sw` this is just its host port; empty when `dst`
  /// is unreachable from `sw` over surviving links.
  std::vector<std::size_t> ecmp_ports(int sw, int dst) const;

  /// End-to-end failover escalation hook (INIC go-back-N and TCP RTO
  /// planes call this when their retry budgets run dry): walks the live
  /// route src -> dst, declares any physically-dark link on it failed
  /// (retry exhaustion is end-to-end evidence, so detection does not
  /// wait out the probe window), re-converges, and repeats until the
  /// route is clean or no alternate exists.  Returns true when the
  /// caller should re-arm and retry (the live route is now viable),
  /// false when routing is disabled or the destination is unreachable
  /// over surviving links — the caller then escalates terminally
  /// (PeerUnreachableError) exactly as before.
  bool request_reroute(int src, int dst);

  // Fabric statistics are trace counters: the report reads the same
  // instrumentation the trace timeline records.  In sharded mode each LP
  // accumulates into its own lane's counters (single writer) and these
  // accessors sum the lanes — a deterministic merge, because every
  // lane's total is itself thread-count independent.
  std::uint64_t frames_forwarded() const {
    return lane_sum(&LaneCounters::forwarded);
  }
  std::uint64_t frames_dropped() const {
    return lane_sum(&LaneCounters::dropped);
  }
  std::uint64_t frames_dropped_link_down() const {
    return lane_sum(&LaneCounters::link_dropped);
  }
  std::uint64_t frames_dropped_burst() const {
    return lane_sum(&LaneCounters::burst_dropped);
  }
  std::uint64_t frames_corrupted() const {
    return lane_sum(&LaneCounters::corrupted);
  }
  /// Bytes of *clean* frames delivered to endpoints.  Corrupted frames'
  /// bytes are tallied separately (they cross the fabric but the
  /// endpoint discards them), and dropped bursts never count.
  Bytes bytes_forwarded() const {
    return Bytes(lane_sum(&LaneCounters::bytes_forwarded));
  }
  Bytes bytes_corrupted() const {
    return Bytes(lane_sum(&LaneCounters::corrupted_bytes));
  }

  /// Peak output-buffer occupancy seen on any port of any switch — used
  /// by tests of the paper's "fits in network buffers" claim.
  Bytes peak_buffer_occupancy() const;
  /// Peak occupancy of one host's final egress port.
  Bytes peak_buffer_occupancy(int node) const {
    return host_port(node).peak;
  }
  /// Peak occupancy per host-facing port, indexed by node id.
  std::vector<Bytes> per_port_peak_occupancy() const;

  /// Per-directed-interior-link totals (empty on a star).  `drops` keeps
  /// the historical summed tally; the congestion/link split attributes
  /// each loss to its cause (drop-tail overflow vs. a dark link) so the
  /// serving/incast analyses can tell an overloaded port from a failed
  /// one.
  struct InteriorLinkStats {
    int from_switch = -1;
    int to_switch = -1;
    std::uint64_t frames = 0;
    Bytes bytes = Bytes::zero();
    Bytes peak_queue = Bytes::zero();
    std::uint64_t drops = 0;  // == drops_congestion + drops_link
    std::uint64_t drops_congestion = 0;
    std::uint64_t drops_link = 0;
  };
  std::vector<InteriorLinkStats> interior_link_stats() const;

  // ------------------------------------------------------------------
  // Fault hooks.  Every hook is deterministic: stochastic ones consume a
  // dedicated RNG stream seeded by the caller; state changes take effect
  // for frames *injected* after the call (interior link state: for
  // frames *forwarded* after the call).
  // ------------------------------------------------------------------

  /// Failure injection: independently drops each DATA frame with the
  /// given probability (control/ACK frames too — real bit errors do not
  /// discriminate).  Deterministic per seed.  Used by the reliability
  /// tests; off by default.
  void set_random_loss(double probability, std::uint64_t seed);

  /// Correlated (bursty) loss via a Gilbert–Elliott two-state chain that
  /// advances once per injected frame.  Replaces any previous burst-loss
  /// configuration; clear_burst_loss() disables it.
  void set_burst_loss(const fault::GilbertElliottParams& params,
                      std::uint64_t seed);
  void clear_burst_loss();

  /// Marks each surviving frame corrupted with the given probability.
  /// Corrupted frames traverse the fabric and are *delivered*; the
  /// endpoint fails their CRC and discards them (counted there, not as a
  /// network drop).  probability <= 0 disables.
  void set_corruption(double probability, std::uint64_t seed);

  /// Administrative/physical link state of one node's host port.  While
  /// down, every frame injected from or destined to that node is lost at
  /// the link (counted in both frames_dropped() and
  /// frames_dropped_link_down()).
  void set_link_state(int node, bool up);
  bool link_up(int node) const { return host_port(node).link_up; }

  /// Interior switch-switch link state (both directions).  While down,
  /// frames reaching either switch with the other as next hop are lost
  /// there, counted like host link drops.  Throws std::invalid_argument
  /// if the two switches are not adjacent.
  void set_interior_link_state(int sw_a, int sw_b, bool up);
  bool has_interior_link(int sw_a, int sw_b) const;

  /// Degrades (or restores) one host port's egress line rate to
  /// `factor` x nominal, e.g. a renegotiated 100 Mb/s link on a gigabit
  /// fabric.  factor must be in (0, 1]: factor <= 0 (or NaN) throws
  /// std::invalid_argument, factor > 1 clamps to 1, and factor = 1
  /// restores the exact nominal rate.  The unserved backlog queued at
  /// the old rate is re-timed at the new rate (frames whose serialization
  /// already completed or was already in flight keep their event times —
  /// see docs/NETWORK.md).
  void set_port_rate_factor(int node, double factor);
  double port_rate_factor(int node) const { return host_port(node).rate_factor; }

  /// Shrinks (or restores, factor = 1) one host port's output-buffer
  /// capacity to `factor` x configured.  factor must be in [0, 1]: NaN or
  /// any value outside throws std::invalid_argument.  Frames already
  /// buffered are unaffected; admission uses the new capacity.
  void set_port_buffer_factor(int node, double factor);

 private:
  /// One output port of one switch.
  struct OutPort {
    int peer_switch = -1;  // >= 0: interior link to that switch
    int host = -1;         // >= 0: host-facing port
    Endpoint* endpoint = nullptr;
    std::unique_ptr<sim::FifoResource> egress;
    Bytes buffered = Bytes::zero();
    Bytes capacity = Bytes::zero();  // admission limit (fault-adjustable)
    Bytes peak = Bytes::zero();      // peak occupancy of this port
    double rate_factor = 1.0;        // (0, 1] of nominal line rate
    bool link_up = true;
    // Per-port tallies for interior_link_stats() and reports.
    std::uint64_t frames_out = 0;  // frames fully serialized out
    Bytes bytes_out = Bytes::zero();
    // Loss attribution.  Congestion (drop-tail overflow of a live port)
    // and link failure (a physically dark link) are different signals:
    // only the latter may feed the adaptive-routing consecutive-drop
    // fast path — an incast burst overflowing a healthy port must never
    // masquerade as a dead link.
    std::uint64_t drops_congestion = 0;  // drop-tail losses at this port
    std::uint64_t drops_link = 0;        // link-down/fault losses
    trace::Counter* congestion = nullptr;  // interior links only
  };
  /// Per-lane fabric statistics, written only by that lane's events; the
  /// public accessors sum the lanes.  A one-lane fabric's counters are
  /// the very counters (same engine, same names) the flat model had.
  struct LaneCounters {
    trace::Counter* forwarded = nullptr;
    trace::Counter* dropped = nullptr;
    trace::Counter* bytes_forwarded = nullptr;
    trace::Counter* link_dropped = nullptr;
    trace::Counter* burst_dropped = nullptr;
    trace::Counter* corrupted = nullptr;
    trace::Counter* corrupted_bytes = nullptr;
  };
  /// Per-lane mutable scalars, cache-line isolated (distinct lanes write
  /// their own concurrently).  Frame ids are per-lane spaces: the id is
  /// (lane << 40) | local, which on one lane reduces to the historical
  /// 1, 2, 3, ... sequence bit-for-bit.
  struct alignas(64) LaneState {
    std::uint64_t next_frame_id = 1;
  };

  Fabric(sim::Engine& eng, TopologyPlan&& plan, const NetworkConfig& cfg);
  Fabric(sim::ParallelEngine* pe, std::vector<sim::Engine*> lane_engines,
         LpPartition part, TopologyPlan&& plan, const NetworkConfig& cfg);

  std::size_t lane_of_switch(int sw) const {
    return part_.lp_of_switch[static_cast<std::size_t>(sw)];
  }
  std::size_t lane_of_host(int host) const {
    return part_.lp_of_host[static_cast<std::size_t>(host)];
  }
  /// The engine of the routing plane and of the fault hooks' probes,
  /// which run only on one-lane fabrics.
  sim::Engine& lane0_engine() const { return *lane_engines_.front(); }
  /// Throws std::logic_error on more than one lane: fault hooks mutate
  /// port state owned by other LPs with no delay, which the conservative
  /// windows cannot order.
  void require_unsharded(const char* what) const;
  /// Sums one of the LaneCounters over every lane.
  std::uint64_t lane_sum(trace::Counter* LaneCounters::*counter) const;

  /// Health the routing plane tracks per undirected interior link,
  /// keyed by the normalized (min, max) switch pair.
  struct LinkHealth {
    bool routed_up = true;        // what re-convergence believes
    int consecutive_drops = 0;    // back-to-back losses at a dark port
    std::uint64_t probe_epoch = 0;  // invalidates in-flight probe checks
  };

  OutPort& host_port(int node);
  const OutPort& host_port(int node) const;
  /// The port switch `sw` forwards `dst`'s frames through (live tables).
  const OutPort& live_port(int sw, int dst) const {
    return ports_[static_cast<std::size_t>(sw)][live_port_to(sw, dst)];
  }
  void forward_at(int sw, Frame frame);

  /// True while the physical interior link (both directions) is up.
  bool interior_phys_up(int sw_a, int sw_b) const;
  /// What the routing plane believes (defaults to up, links it has
  /// never heard about included).
  bool link_routed_up(int sw_a, int sw_b) const;
  /// Consecutive-drop fast path: a frame lost at a dark interior port.
  void note_interior_drop(int sw_a, int sw_b);
  /// A frame successfully serialized across an interior link.
  void note_interior_success(int sw_a, int sw_b);
  /// Heartbeat hysteresis: fires a fixed number of probe intervals after
  /// a physical state change; declares the link only if the state still
  /// holds and no newer change superseded this check (epoch match).
  void probe_check(int lo, int hi, std::uint64_t epoch, bool expect_up);
  /// Commits a routed-state change (traced under kRouting) and
  /// re-converges.  No-op if the link is already in that state.
  void declare_link(int lo, int hi, bool up);
  /// Rebuilds the live next-port tables over surviving links: ECMP among
  /// minimal paths, candidates in ascending link id, spread by
  /// `dst % candidates`.  Bumps route_epoch_.
  void reconverge();
  /// Routed-distance BFS: hops from every switch to `dst`'s attach
  /// switch over the interior links the routing plane believes are up
  /// (-1 where unreachable).  `queue` is reusable working storage.
  void routed_distances(int dst, std::vector<int>& dist,
                        std::vector<int>& queue) const;
  /// Appends to `ports`, ascending, every interior port of `sw` whose
  /// peer is one routed hop closer to the destination `dist` measures.
  void minimal_ports(int sw, const std::vector<int>& dist,
                     std::vector<std::size_t>& ports) const;
  std::size_t live_port_to(int sw, int dst) const {
    return routing_.empty()
               ? plan_.port_to(sw, dst)
               : routing_[static_cast<std::size_t>(sw) * plan_.hosts.size() +
                          static_cast<std::size_t>(dst)];
  }

  sim::ParallelEngine* pe_;  // carries cross-lane hops (null: one lane)
  std::vector<sim::Engine*> lane_engines_;  // lane -> its engine
  LpPartition part_;                        // switch/host -> lane
  NetworkConfig cfg_;
  TopologyPlan plan_;
  std::vector<std::vector<OutPort>> ports_;  // ports_[switch][port]
  // Live next-port tables (empty until the first re-convergence; the
  // static plan_ tables serve until then, so the inert path allocates
  // and copies nothing).
  std::vector<std::uint16_t> routing_;
  std::map<std::pair<int, int>, LinkHealth> link_health_;
  std::uint64_t route_epoch_ = 0;
  trace::Counter* route_epochs_ = nullptr;      // net/route_epoch
  trace::Counter* reroute_requests_ = nullptr;  // net/reroute_requests
  double loss_probability_ = 0.0;
  std::unique_ptr<Rng> loss_rng_;
  std::unique_ptr<fault::GilbertElliott> burst_loss_;
  double corruption_probability_ = 0.0;
  std::unique_ptr<Rng> corruption_rng_;
  std::vector<LaneCounters> lane_counters_;  // one per lane
  std::vector<LaneState> lanes_;             // one per lane
};

/// The flat star network the rest of the tree grew up with is now the
/// degenerate Fabric; every existing consumer keeps compiling.
using Network = Fabric;

}  // namespace acc::net
