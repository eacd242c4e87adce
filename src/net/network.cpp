#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "sim/parallel.hpp"

namespace acc::net {
namespace {

// Adaptive-routing detection tunables (docs/NETWORK.md).  Back-to-back
// frames lost at a dark interior port that declare it failed at once:
constexpr int kDropThreshold = 3;
// A physical state change is declared only if it still holds this many
// probe intervals later (down, resp. up):
constexpr int kDownProbes = 3;
constexpr int kUpProbes = 2;
constexpr Time kProbeInterval = Time::nanos(100'000);

// trace::Counter keeps the name as a const char*, so dynamically built
// per-link names need stable storage.  The pool is process-wide (cheap:
// one string per distinct link label across all runs) and locked because
// SweepRunner constructs fabrics from several threads at once.
const char* intern_counter_name(std::string name) {
  static std::mutex mu;
  static std::unordered_set<std::string> pool;
  std::lock_guard<std::mutex> lock(mu);
  return pool.insert(std::move(name)).first->c_str();
}

std::vector<sim::Engine*> lp_engines(sim::ParallelEngine& pe,
                                     std::size_t lanes) {
  std::vector<sim::Engine*> engines;
  for (std::size_t l = 0; l < lanes; ++l) engines.push_back(&pe.lp(l));
  return engines;
}

}  // namespace

Fabric::Fabric(sim::Engine& eng, std::size_t ports, const NetworkConfig& cfg)
    : Fabric(eng, build_topology(cfg.topology, ports), cfg) {}

Fabric::Fabric(sim::Engine& eng, TopologyPlan&& plan, const NetworkConfig& cfg)
    : Fabric(nullptr, {&eng}, single_lp_partition(plan), std::move(plan),
             cfg) {}

Fabric::Fabric(sim::ParallelEngine& pe, const LpPartition& part,
               TopologyPlan plan, const NetworkConfig& cfg)
    : Fabric(&pe, lp_engines(pe, part.lp_count), part, std::move(plan), cfg) {}

Fabric::Fabric(sim::ParallelEngine* pe, std::vector<sim::Engine*> lane_engines,
               LpPartition part, TopologyPlan&& plan, const NetworkConfig& cfg)
    : pe_(pe),
      lane_engines_(std::move(lane_engines)),
      part_(std::move(part)),
      cfg_(cfg),
      plan_(std::move(plan)) {
  const std::size_t lanes = lane_engines_.size();
  if (lanes > 1 && cfg_.adaptive_routing) {
    throw std::invalid_argument(
        "Fabric: adaptive routing mutates next-port tables and link-health "
        "state shared by every switch; it is not supported on a fabric "
        "partitioned over more than one LP");
  }
  if (part_.lp_of_switch.size() != plan_.switches.size()) {
    throw std::invalid_argument(
        "Fabric: LP partition does not match the materialized topology");
  }
  lanes_.resize(lanes);
  lane_counters_.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    trace::CounterRegistry& reg = lane_engines_[l]->counters();
    auto& c = lane_counters_[l];
    c.forwarded = &reg.get(trace::Category::kNet, -1, "net/frames_forwarded");
    c.dropped = &reg.get(trace::Category::kNet, -1, "net/frames_dropped");
    c.bytes_forwarded =
        &reg.get(trace::Category::kNet, -1, "net/bytes_forwarded");
    c.link_dropped = &reg.get(trace::Category::kNet, -1, "net/link_drops");
    c.burst_dropped = &reg.get(trace::Category::kNet, -1, "net/burst_drops");
    c.corrupted = &reg.get(trace::Category::kNet, -1, "net/corrupted");
    c.corrupted_bytes =
        &reg.get(trace::Category::kNet, -1, "net/bytes_corrupted");
  }
  const bool single = plan_.switches.size() == 1;
  ports_.resize(plan_.switches.size());
  for (std::size_t s = 0; s < plan_.switches.size(); ++s) {
    const auto& spec = plan_.switches[s];
    // Every per-port resource and counter binds to the engine of the
    // switch's lane: the egress serializer computes completion times
    // from that engine's clock, and only that lane's events drive it.
    sim::Engine& swe = *lane_engines_[part_.lp_of_switch[s]];
    ports_[s].resize(spec.ports.size());
    for (std::size_t p = 0; p < spec.ports.size(); ++p) {
      auto& port = ports_[s][p];
      port.peer_switch = spec.ports[p].peer_switch;
      port.host = spec.ports[p].host;
      // The single-star fabric keeps the flat model's "egress-<port>"
      // resource names so utilization reports read identically.
      const std::string name =
          single ? "egress-" + std::to_string(p)
                 : "sw" + std::to_string(s) + "-p" + std::to_string(p);
      port.egress =
          std::make_unique<sim::FifoResource>(swe, cfg.line_rate, name);
      port.capacity = cfg.port_buffer;
      if (port.peer_switch >= 0) {
        // Interior-link counters are named by the *undirected* link,
        // normalized to s<min>-s<max>, so both directions (and every
        // caller that names the link, e.g. fault windows) agree on one
        // label and tally into one counter.
        const int lo = std::min(static_cast<int>(s), port.peer_switch);
        const int hi = std::max(static_cast<int>(s), port.peer_switch);
        port.congestion = &swe.counters().get(
            trace::Category::kNet, -1,
            intern_counter_name("net/link/s" + std::to_string(lo) + "-s" +
                                std::to_string(hi)));
      }
    }
  }
  if (cfg_.adaptive_routing) {
    trace::CounterRegistry& reg = lane0_engine().counters();
    route_epochs_ =
        &reg.get(trace::Category::kRouting, -1, "net/route_epoch");
    reroute_requests_ =
        &reg.get(trace::Category::kRouting, -1, "net/reroute_requests");
  }
}

void Fabric::require_unsharded(const char* what) const {
  if (lanes_.size() <= 1) return;
  throw std::logic_error(
      std::string(what) +
      ": fault hooks mutate per-port state owned by other LPs with no "
      "delivery delay, which the conservative window discipline cannot "
      "order; not supported on a fabric partitioned over more than one LP "
      "(run engine_threads <= 1 for fault scenarios)");
}

std::uint64_t Fabric::lane_sum(trace::Counter* LaneCounters::*counter) const {
  std::uint64_t total = 0;
  for (const auto& c : lane_counters_) total += (c.*counter)->value();
  return total;
}

Bytes Fabric::peak_buffer_occupancy() const {
  Bytes peak = Bytes::zero();
  for (const auto& lane : lanes_) peak = std::max(peak, lane.peak_occupancy);
  return peak;
}

Fabric::OutPort& Fabric::host_port(int node) {
  const auto& attach = plan_.hosts.at(static_cast<std::size_t>(node));
  return ports_[static_cast<std::size_t>(attach.sw)][attach.port];
}

const Fabric::OutPort& Fabric::host_port(int node) const {
  const auto& attach = plan_.hosts.at(static_cast<std::size_t>(node));
  return ports_[static_cast<std::size_t>(attach.sw)][attach.port];
}

void Fabric::set_random_loss(double probability, std::uint64_t seed) {
  require_unsharded("set_random_loss");
  loss_probability_ = probability;
  loss_rng_ = probability > 0.0 ? std::make_unique<Rng>(seed) : nullptr;
}

void Fabric::set_burst_loss(const fault::GilbertElliottParams& params,
                            std::uint64_t seed) {
  require_unsharded("set_burst_loss");
  burst_loss_ = std::make_unique<fault::GilbertElliott>(params, seed);
}

void Fabric::clear_burst_loss() { burst_loss_.reset(); }

void Fabric::set_corruption(double probability, std::uint64_t seed) {
  require_unsharded("set_corruption");
  corruption_probability_ = probability;
  corruption_rng_ = probability > 0.0 ? std::make_unique<Rng>(seed) : nullptr;
}

void Fabric::set_link_state(int node, bool up) {
  require_unsharded("set_link_state");
  host_port(node).link_up = up;
}

void Fabric::set_interior_link_state(int sw_a, int sw_b, bool up) {
  require_unsharded("set_interior_link_state");
  if (!has_interior_link(sw_a, sw_b)) {
    throw std::invalid_argument(
        "set_interior_link_state: switches are not adjacent");
  }
  const auto set_direction = [this, up](int from, int to) {
    for (auto& port : ports_[static_cast<std::size_t>(from)]) {
      if (port.peer_switch == to) port.link_up = up;
    }
  };
  set_direction(sw_a, sw_b);
  set_direction(sw_b, sw_a);
  if (!cfg_.adaptive_routing) return;
  // Heartbeat hysteresis: every physical state change invalidates any
  // in-flight probe check (epoch bump) and schedules one new check
  // kDownProbes/kUpProbes intervals out — the link is declared only if
  // the state still holds then.  One bounded event per change, never a
  // free-running prober, so Engine::run() still terminates when the
  // workload drains.
  const int lo = std::min(sw_a, sw_b);
  const int hi = std::max(sw_a, sw_b);
  auto& health = link_health_[{lo, hi}];
  const std::uint64_t epoch = ++health.probe_epoch;
  const int probes = up ? kUpProbes : kDownProbes;
  lane0_engine().schedule(
      kProbeInterval * static_cast<double>(probes),
      [this, lo, hi, epoch, up] { probe_check(lo, hi, epoch, up); });
}

bool Fabric::has_interior_link(int sw_a, int sw_b) const {
  if (sw_a < 0 || sw_b < 0 ||
      static_cast<std::size_t>(sw_a) >= ports_.size() ||
      static_cast<std::size_t>(sw_b) >= ports_.size()) {
    return false;
  }
  for (const auto& port : ports_[static_cast<std::size_t>(sw_a)]) {
    if (port.peer_switch == sw_b) return true;
  }
  return false;
}

void Fabric::set_port_rate_factor(int node, double factor) {
  require_unsharded("set_port_rate_factor");
  // Documented contract: (0, 1].  A zero/negative (or NaN) factor is a
  // caller bug, not a degraded link — reject it instead of silently
  // running the port at a near-stalled 1e-6 of line rate.
  if (!(factor > 0.0)) {
    throw std::invalid_argument(
        "set_port_rate_factor: factor must be in (0, 1]");
  }
  factor = std::min(factor, 1.0);
  auto& port = host_port(node);
  port.rate_factor = factor;
  // factor == 1 restores the exact nominal Bandwidth (no float round
  // trip); any backlog queued at the old rate is re-timed at the new.
  port.egress->set_rate_rescaled(factor == 1.0 ? cfg_.line_rate
                                               : cfg_.line_rate * factor);
}

void Fabric::set_port_buffer_factor(int node, double factor) {
  require_unsharded("set_port_buffer_factor");
  factor = std::clamp(factor, 0.0, 1.0);
  host_port(node).capacity = Bytes(static_cast<std::uint64_t>(
      static_cast<double>(cfg_.port_buffer.count()) * factor));
}

void Fabric::attach(int node, Endpoint& endpoint) {
  auto& port = host_port(node);
  assert(port.endpoint == nullptr && "port already attached");
  port.endpoint = &endpoint;
}

std::vector<int> Fabric::route(int src, int dst) const {
  std::vector<int> path;
  int sw = plan_.hosts.at(static_cast<std::size_t>(src)).sw;
  for (;;) {
    path.push_back(sw);
    const auto& port = live_port(sw, dst);
    if (port.host >= 0) break;
    sw = port.peer_switch;
  }
  return path;
}

Time Fabric::path_latency(int src, int dst, Bytes wire) const {
  Time total = cfg_.link_latency;  // source device -> first switch
  int sw = plan_.hosts.at(static_cast<std::size_t>(src)).sw;
  for (;;) {
    total += cfg_.switch_latency;
    const auto& port = live_port(sw, dst);
    if (wire > Bytes::zero()) {
      total += transfer_time(wire, port.egress->rate());
    }
    total += cfg_.link_latency;
    if (port.host >= 0) return total;
    sw = port.peer_switch;
  }
}

std::vector<Bytes> Fabric::per_port_peak_occupancy() const {
  std::vector<Bytes> peaks;
  peaks.reserve(plan_.hosts.size());
  for (std::size_t h = 0; h < plan_.hosts.size(); ++h) {
    peaks.push_back(host_port(static_cast<int>(h)).peak);
  }
  return peaks;
}

std::vector<Fabric::InteriorLinkStats> Fabric::interior_link_stats() const {
  std::vector<InteriorLinkStats> stats;
  for (std::size_t s = 0; s < ports_.size(); ++s) {
    for (const auto& port : ports_[s]) {
      if (port.peer_switch < 0) continue;
      InteriorLinkStats st;
      st.from_switch = static_cast<int>(s);
      st.to_switch = port.peer_switch;
      st.frames = port.frames_out;
      st.bytes = port.bytes_out;
      st.peak_queue = port.peak;
      st.drops = port.drops_congestion + port.drops_link;
      st.drops_congestion = port.drops_congestion;
      st.drops_link = port.drops_link;
      stats.push_back(st);
    }
  }
  return stats;
}

void Fabric::inject(Frame frame) {
  auto& dst_port = host_port(frame.dst);
  if (dst_port.endpoint == nullptr) {
    throw std::logic_error("Fabric::inject: destination port not attached");
  }
  // Injection executes on the source host's lane (its edge switch's
  // engine); the entry-switch hop below is therefore always lane-local.
  // Frame ids come from the lane's own space — (lane << 40) | local —
  // which on one lane is the historical 1, 2, 3, ...
  const std::size_t lane = lane_of_host(frame.src);
  sim::Engine& eng = *lane_engines_[lane];
  const LaneCounters& ctr = lane_counters_[lane];
  frame.id = (static_cast<std::uint64_t>(lane) << 40) |
             lanes_[lane].next_frame_id++;

  eng.tracer().instant(trace::Category::kNet, frame.src, "net/inject",
                       eng.now(),
                       static_cast<std::int64_t>(frame.wire.count()));

  // Link state gates everything: a downed host port loses frames in
  // either direction at the PHY, before any loss/corruption process sees
  // them.  (Sharded fabrics reject the fault hooks, so reading the
  // destination's link_up here never races — it is always true.)
  if (!host_port(frame.src).link_up || !dst_port.link_up) {
    ctr.dropped->add(eng.now(), 1);
    ctr.link_dropped->add(eng.now(), 1);
    eng.tracer().instant(trace::Category::kNet, frame.dst, "net/link_drop",
                         eng.now(), static_cast<std::int64_t>(frame.id));
    return;
  }

  // The frame reaches the first switch after the ingress link latency;
  // the buffer admission decision happens there.
  // Injected loss models bit errors on the links; the frame vanishes
  // before the switch sees it.
  if (loss_rng_ && loss_rng_->chance(loss_probability_)) {
    ctr.dropped->add(eng.now(), 1);
    eng.tracer().instant(trace::Category::kNet, frame.dst, "net/loss",
                         eng.now(), static_cast<std::int64_t>(frame.id));
    return;
  }

  // Correlated loss: the Gilbert–Elliott chain advances once per offered
  // frame, so burst structure is independent of which frames uniform
  // loss already removed.
  if (burst_loss_ && burst_loss_->lose_frame()) {
    ctr.dropped->add(eng.now(), 1);
    ctr.burst_dropped->add(eng.now(), 1);
    eng.tracer().instant(trace::Category::kNet, frame.dst, "net/burst_loss",
                         eng.now(), static_cast<std::int64_t>(frame.id));
    return;
  }

  // Corruption: the frame survives the fabric but will fail its CRC at
  // the endpoint.  It still consumes buffering and serialization — the
  // cost structure that distinguishes it from silent loss.
  if (corruption_rng_ && corruption_rng_->chance(corruption_probability_)) {
    frame.corrupted = true;
    ctr.corrupted->add(eng.now(), 1);
    eng.tracer().instant(trace::Category::kNet, frame.dst, "net/corrupt",
                         eng.now(), static_cast<std::int64_t>(frame.id));
  }

  const int entry = plan_.hosts[static_cast<std::size_t>(frame.src)].sw;
  eng.schedule(cfg_.link_latency + cfg_.switch_latency,
               [this, frame, entry] { forward_at(entry, frame); });
}

void Fabric::forward_at(int sw, Frame frame) {
  const std::size_t out = live_port_to(sw, frame.dst);
  OutPort& port = ports_[static_cast<std::size_t>(sw)][out];
  // Everything below runs on (and touches only) this switch's lane: its
  // engine drives the trace lane, its counters take the tallies, its
  // ports are single-writer.  A hop whose peer switch is on another lane
  // leaves through post() at the link+switch latency — never less than
  // the partition's lookahead.
  const std::size_t lane = lane_of_switch(sw);
  sim::Engine& eng = *lane_engines_[lane];
  const LaneCounters& ctr = lane_counters_[lane];

  // Interior link state is checked here, at forwarding time, because a
  // frame already in flight when a backbone link fails is lost at the
  // failed hop — not retroactively at injection.
  if (port.peer_switch >= 0 && !port.link_up) {
    ++port.drops_link;
    ctr.dropped->add(eng.now(), 1);
    ctr.link_dropped->add(eng.now(), 1);
    eng.tracer().instant(trace::Category::kNet, frame.dst, "net/link_drop",
                         eng.now(), static_cast<std::int64_t>(frame.id));
    note_interior_drop(sw, port.peer_switch);
    return;
  }

  // Drop-tail admission: the whole burst fits in the output buffer or
  // the whole burst is lost.
  if (port.buffered + frame.wire > port.capacity) {
    ++port.drops_congestion;
    ctr.dropped->add(eng.now(), 1);
    eng.tracer().instant(trace::Category::kNet, frame.dst, "net/drop",
                         eng.now(), static_cast<std::int64_t>(frame.id));
    // Deliberately NOT note_interior_drop(): a drop-tail overflow is a
    // congestion signal on a live link, never link-health evidence.
    // Only dark-link losses (above) and heartbeat probes may declare
    // link_down, so an incast storm cannot flip route_epoch
    // (tests/routing_test.cpp IncastStorm*).
    return;
  }
  port.buffered += frame.wire;
  port.peak = std::max(port.peak, port.buffered);
  if (port.buffered > lanes_[lane].peak_occupancy) {
    lanes_[lane].peak_occupancy = port.buffered;
  }

  // Egress serialization at the port's line rate, FCFS with other
  // buffered frames, then the egress link latency to the next hop or
  // the endpoint.
  const Time serialized_at = port.egress->enqueue(frame.wire);
  eng.tracer().span(trace::Category::kNet, frame.dst, "net/egress",
                    eng.now(), serialized_at - eng.now(),
                    static_cast<std::int64_t>(frame.wire.count()));
  eng.schedule_at(serialized_at, [this, frame, sw, out] {
    OutPort& port = ports_[static_cast<std::size_t>(sw)][out];
    const std::size_t lane = lane_of_switch(sw);
    sim::Engine& eng = *lane_engines_[lane];
    const LaneCounters& ctr = lane_counters_[lane];
    port.buffered -= frame.wire;
    ++port.frames_out;
    port.bytes_out += frame.wire;
    if (port.peer_switch >= 0) {
      port.congestion->add(eng.now(), 1);
      const int next = port.peer_switch;
      note_interior_success(sw, next);
      const Time hop = cfg_.link_latency + cfg_.switch_latency;
      const std::size_t next_lane = lane_of_switch(next);
      if (next_lane != lane) {
        pe_->post(lane, next_lane, hop,
                  [this, frame, next] { forward_at(next, frame); });
      } else {
        eng.schedule(hop, [this, frame, next] { forward_at(next, frame); });
      }
      return;
    }
    ctr.forwarded->add(eng.now(), 1);
    // Only clean deliveries count as forwarded bytes; corrupted frames
    // crossed the fabric but the endpoint discards them, so their bytes
    // land in a separate tally.
    (frame.corrupted ? *ctr.corrupted_bytes : *ctr.bytes_forwarded)
        .add(eng.now(), frame.wire.count());
    Endpoint* endpoint = port.endpoint;
    eng.schedule(cfg_.link_latency,
                 [frame, endpoint] { endpoint->deliver(frame); });
  });
}

// ---------------------------------------------------------------------
// Adaptive routing plane.  Every entry point below is gated on
// cfg_.adaptive_routing (directly or via its only callers), so with the
// default static config none of this runs and no kRouting record is
// ever emitted.  Adaptive routing is rejected on more than one lane, so
// the plane runs on lane 0's engine.
// ---------------------------------------------------------------------

bool Fabric::interior_phys_up(int sw_a, int sw_b) const {
  for (const auto& port : ports_.at(static_cast<std::size_t>(sw_a))) {
    if (port.peer_switch == sw_b) return port.link_up;
  }
  return false;
}

bool Fabric::link_routed_up(int sw_a, int sw_b) const {
  const auto it = link_health_.find(
      {std::min(sw_a, sw_b), std::max(sw_a, sw_b)});
  return it == link_health_.end() || it->second.routed_up;
}

std::vector<std::pair<int, int>> Fabric::links_declared_down() const {
  std::vector<std::pair<int, int>> down;
  for (const auto& [link, health] : link_health_) {
    if (!health.routed_up) down.push_back(link);
  }
  return down;  // std::map iteration: already (min, max) ascending
}

void Fabric::note_interior_drop(int sw_a, int sw_b) {
  if (!cfg_.adaptive_routing) return;
  auto& health = link_health_[{std::min(sw_a, sw_b), std::max(sw_a, sw_b)}];
  if (!health.routed_up) return;  // already failed over
  if (++health.consecutive_drops >= kDropThreshold) {
    declare_link(std::min(sw_a, sw_b), std::max(sw_a, sw_b), false);
  }
}

void Fabric::note_interior_success(int sw_a, int sw_b) {
  if (!cfg_.adaptive_routing) return;
  const auto it = link_health_.find(
      {std::min(sw_a, sw_b), std::max(sw_a, sw_b)});
  if (it != link_health_.end()) it->second.consecutive_drops = 0;
}

void Fabric::probe_check(int lo, int hi, std::uint64_t epoch, bool expect_up) {
  const auto it = link_health_.find({lo, hi});
  if (it == link_health_.end() || it->second.probe_epoch != epoch) {
    return;  // a newer physical change superseded this check
  }
  if (interior_phys_up(lo, hi) != expect_up) return;  // flapped back
  declare_link(lo, hi, expect_up);
}

void Fabric::declare_link(int lo, int hi, bool up) {
  auto& health = link_health_[{lo, hi}];
  if (health.routed_up == up) return;
  health.routed_up = up;
  health.consecutive_drops = 0;
  ++health.probe_epoch;  // a declaration also retires in-flight checks
  sim::Engine& eng = lane0_engine();
  eng.tracer().instant(
      trace::Category::kRouting, -1,
      up ? "routing/link_up" : "routing/link_down", eng.now(),
      (static_cast<std::int64_t>(lo) << 32) | static_cast<std::int64_t>(hi));
  reconverge();
}

void Fabric::routed_distances(int dst, std::vector<int>& dist,
                              std::vector<int>& queue) const {
  dist.assign(ports_.size(), -1);
  const int root = plan_.hosts.at(static_cast<std::size_t>(dst)).sw;
  dist[static_cast<std::size_t>(root)] = 0;
  queue.clear();
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int at = queue[head];
    for (const auto& port : ports_[static_cast<std::size_t>(at)]) {
      const int peer = port.peer_switch;
      if (peer < 0 || dist[static_cast<std::size_t>(peer)] >= 0) continue;
      if (!link_routed_up(at, peer)) continue;
      dist[static_cast<std::size_t>(peer)] =
          dist[static_cast<std::size_t>(at)] + 1;
      queue.push_back(peer);
    }
  }
}

void Fabric::minimal_ports(int sw, const std::vector<int>& dist,
                           std::vector<std::size_t>& ports) const {
  const auto& row = ports_[static_cast<std::size_t>(sw)];
  const int here = dist[static_cast<std::size_t>(sw)];
  for (std::size_t p = 0; p < row.size(); ++p) {
    const int peer = row[p].peer_switch;
    if (peer < 0 || dist[static_cast<std::size_t>(peer)] != here - 1) continue;
    if (!link_routed_up(sw, peer)) continue;
    ports.push_back(p);
  }
}

void Fabric::reconverge() {
  ++route_epoch_;
  sim::Engine& eng = lane0_engine();
  if (route_epochs_ != nullptr) route_epochs_->add(eng.now(), 1);
  eng.tracer().instant(trace::Category::kRouting, -1, "routing/reconverge",
                       eng.now(), static_cast<std::int64_t>(route_epoch_));

  bool any_down = false;
  for (const auto& [link, health] : link_health_) {
    if (!health.routed_up) any_down = true;
  }
  if (!any_down) {
    // Full recovery: restore the pristine static tables exactly.
    routing_ = plan_.next_port;
    return;
  }
  if (routing_.empty()) routing_ = plan_.next_port;

  // Per destination: the routed-distance BFS from the destination's
  // attach switch; each switch then forwards through any port whose peer
  // is strictly closer.  The candidate list is in ascending port index
  // (== ascending link id, the stable tie-break) and the live entry
  // takes candidates[dst % n] — deterministic ECMP spread, the same
  // idiom the static fat-tree tables use for spine selection.  Paths are
  // loop-free by construction (distance strictly decreases); switches
  // the BFS cannot reach keep their stale entries, so stranded frames
  // die at the dead hop and the end-to-end planes escalate.
  const std::size_t hosts = plan_.hosts.size();
  std::vector<int> dist;
  std::vector<int> queue;
  queue.reserve(ports_.size());
  std::vector<std::size_t> candidates;
  for (std::size_t dst = 0; dst < hosts; ++dst) {
    routed_distances(static_cast<int>(dst), dist, queue);
    for (std::size_t s = 0; s < ports_.size(); ++s) {
      if (dist[s] <= 0) continue;  // unreachable (keep stale) or the root
      candidates.clear();
      minimal_ports(static_cast<int>(s), dist, candidates);
      if (candidates.empty()) continue;
      routing_[s * hosts + dst] =
          static_cast<std::uint16_t>(candidates[dst % candidates.size()]);
    }
  }
}

std::vector<std::size_t> Fabric::ecmp_ports(int sw, int dst) const {
  std::vector<std::size_t> ports;
  const auto& attach = plan_.hosts.at(static_cast<std::size_t>(dst));
  if (attach.sw == sw) {
    ports.push_back(attach.port);
    return ports;
  }
  std::vector<int> dist;
  std::vector<int> queue;
  routed_distances(dst, dist, queue);
  if (dist.at(static_cast<std::size_t>(sw)) < 0) {
    return ports;  // unreachable over surviving links
  }
  minimal_ports(sw, dist, ports);
  return ports;
}

bool Fabric::request_reroute(int src, int dst) {
  if (!cfg_.adaptive_routing) return false;
  sim::Engine& eng = lane0_engine();
  if (reroute_requests_ != nullptr) reroute_requests_->add(eng.now(), 1);
  eng.tracer().instant(trace::Category::kRouting, src,
                       "routing/reroute_request", eng.now(), dst);
  // A dead host port cannot be routed around — each host has a single
  // attachment — so fail fast and let the caller escalate terminally.
  if (!host_port(src).link_up || !host_port(dst).link_up) return false;
  // Each pass either finds the live route clean, declares one more dark
  // link (and re-converges), or proves there is no alternate.  At most
  // one declaration per interior link bounds the loop.
  const std::size_t hop_cap = ports_.size() + 1;
  for (std::size_t pass = 0; pass <= link_health_.size() + ports_.size();
       ++pass) {
    int sw = plan_.hosts.at(static_cast<std::size_t>(src)).sw;
    bool declared = false;
    bool clean = false;
    for (std::size_t hops = 0; hops < hop_cap; ++hops) {
      const auto& port = live_port(sw, dst);
      if (port.host >= 0) {
        clean = true;
        break;
      }
      const int peer = port.peer_switch;
      if (!port.link_up) {
        if (!link_routed_up(sw, peer)) {
          // Re-convergence already knows and still has no way around it:
          // the destination is unreachable over surviving links.
          return false;
        }
        // End-to-end evidence: declare the dark link without waiting out
        // the probe window, re-converge, and re-walk the new route.
        declare_link(std::min(sw, peer), std::max(sw, peer), false);
        declared = true;
        break;
      }
      sw = peer;
    }
    if (clean) return true;
    if (!declared) return false;  // stale-route walk exceeded the cap
  }
  return false;
}

}  // namespace acc::net
