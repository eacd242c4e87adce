// Fault-aware adaptive routing tests: link-health detection (heartbeat
// hysteresis + consecutive-drop fast path), deterministic re-convergence
// over surviving links, request_reroute semantics, and the ECMP property
// contract — every alternate is a minimal, loop-free path and
// path_latency over the live route matches measured delivery time.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace acc::net {
namespace {

class RecordingEndpoint : public Endpoint {
 public:
  explicit RecordingEndpoint(sim::Engine& eng) : eng_(eng) {}
  void deliver(const Frame& frame) override {
    frames.push_back(frame);
    times.push_back(eng_.now());
  }
  std::vector<Frame> frames;
  std::vector<Time> times;

 private:
  sim::Engine& eng_;
};

Frame make_frame(int src, int dst, Bytes payload = Bytes(1024)) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.payload = payload;
  f.wire = payload + Bytes(38);
  f.packet_count = 1;
  return f;
}

/// A fabric with every host attached to a recording endpoint.
struct Harness {
  Harness(std::size_t hosts, const TopologyConfig& topo, bool adaptive) {
    NetworkConfig cfg;
    cfg.topology = topo;
    cfg.adaptive_routing = adaptive;
    net = std::make_unique<Network>(eng, hosts, cfg);
    for (std::size_t h = 0; h < hosts; ++h) {
      sinks.push_back(std::make_unique<RecordingEndpoint>(eng));
      net->attach(static_cast<int>(h), *sinks.back());
    }
  }
  sim::Engine eng;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<RecordingEndpoint>> sinks;
};

/// First interior hop (switch pair) on the current live route, or
/// (-1, -1) if the route is single-switch.
std::pair<int, int> first_interior_hop(const Network& net, int src, int dst) {
  const auto path = net.route(src, dst);
  if (path.size() < 2) return {-1, -1};
  return {path[0], path[1]};
}

TEST(Routing, StaticFabricEmitsNoRoutingRecordsOnLinkFailure) {
  // With adaptive routing off (the default), a dark backbone link must
  // change nothing about the fabric's behaviour or its trace stream —
  // frames keep dying at the dead hop and no kRouting record appears.
  Harness h(8, TopologyConfig::fat_tree(2), /*adaptive=*/false);
  h.eng.tracer().enable();
  int src = 0, dst = -1;
  for (int d = 1; d < 8; ++d) {
    if (first_interior_hop(*h.net, 0, d).first >= 0) {
      dst = d;
      break;
    }
  }
  ASSERT_GE(dst, 0) << "fat tree should have multi-hop pairs";
  const auto hop = first_interior_hop(*h.net, src, dst);
  h.net->set_interior_link_state(hop.first, hop.second, false);
  for (int i = 0; i < 8; ++i) h.net->inject(make_frame(src, dst));
  h.eng.run();

  EXPECT_EQ(h.sinks[static_cast<std::size_t>(dst)]->frames.size(), 0u);
  EXPECT_EQ(h.net->route_epoch(), 0u);
  EXPECT_FALSE(h.net->request_reroute(src, dst));
  for (const auto& r : h.eng.tracer().records()) {
    EXPECT_NE(r.category, trace::Category::kRouting)
        << "static fabric emitted kRouting record " << r.name;
  }
}

TEST(Routing, IncastStormNeverFlipsLinkHealth) {
  // The drop-attribution regression test: an incast storm overflows
  // output buffers (drop-tail, congestion), and congestion drops are a
  // load signal on a *live* link — they must never feed the
  // consecutive-drop fast path, declare a link down, or trigger a
  // re-convergence.  Before the drops_congestion/drops_link split, one
  // shared counter made this distinction impossible to audit.
  NetworkConfig cfg;
  cfg.topology = TopologyConfig::fat_tree(2);
  cfg.adaptive_routing = true;
  cfg.port_buffer = Bytes::kib(2);  // tiny buffers: guarantee drop-tail
  sim::Engine eng;
  eng.tracer().enable();
  Network net(eng, 8, cfg);
  std::vector<std::unique_ptr<RecordingEndpoint>> sinks;
  for (int h = 0; h < 8; ++h) {
    sinks.push_back(std::make_unique<RecordingEndpoint>(eng));
    net.attach(h, *sinks.back());
  }

  // Everyone slams host 0 at t=0: a classic incast.
  const int kBurst = 16;
  for (int src = 1; src < 8; ++src) {
    for (int i = 0; i < kBurst; ++i) net.inject(make_frame(src, 0));
  }
  eng.run();

  // The storm lost frames...
  EXPECT_GT(net.frames_dropped(), 0u);
  EXPECT_LT(sinks[0]->frames.size(), static_cast<std::size_t>(7 * kBurst));
  // ...but every loss was attributed to congestion, none to link faults,
  // and the fabric's routing state never moved.
  std::uint64_t congestion = 0;
  for (const auto& s : net.interior_link_stats()) {
    congestion += s.drops_congestion;
    EXPECT_EQ(s.drops_link, 0u);
    EXPECT_EQ(s.drops, s.drops_congestion + s.drops_link);
  }
  EXPECT_GT(congestion, 0u) << "storm should overflow interior ports too";
  EXPECT_EQ(net.route_epoch(), 0u);
  EXPECT_TRUE(net.links_declared_down().empty());
  for (const auto& r : eng.tracer().records()) {
    EXPECT_NE(r.category, trace::Category::kRouting)
        << "congestion drop emitted routing record " << r.name;
  }
}

TEST(Routing, ConsecutiveDropsDeclareLinkAndRerouteTraffic) {
  Harness h(8, TopologyConfig::fat_tree(2), /*adaptive=*/true);
  int src = 0, dst = -1;
  for (int d = 1; d < 8; ++d) {
    if (first_interior_hop(*h.net, 0, d).first >= 0) {
      dst = d;
      break;
    }
  }
  ASSERT_GE(dst, 0);
  const auto hop = first_interior_hop(*h.net, src, dst);
  h.net->set_interior_link_state(hop.first, hop.second, false);

  // Three consecutive losses (the fabric's drop threshold) at the dark
  // port must declare the link failed and re-converge; later frames take
  // the alternate spine and arrive.
  const int kFrames = 8;
  for (int i = 0; i < kFrames; ++i) h.net->inject(make_frame(src, dst));
  h.eng.run();

  EXPECT_GE(h.net->route_epoch(), 1u);
  const auto down = h.net->links_declared_down();
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], std::make_pair(std::min(hop.first, hop.second),
                                    std::max(hop.first, hop.second)));
  // The re-converged route avoids the dead link in both directions.
  const auto path = h.net->route(src, dst);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const bool dead = (path[i] == hop.first && path[i + 1] == hop.second) ||
                      (path[i] == hop.second && path[i + 1] == hop.first);
    EXPECT_FALSE(dead) << "live route still crosses the declared-down link";
  }
  // Exactly three frames died during detection; the rest made it.
  EXPECT_EQ(h.sinks[static_cast<std::size_t>(dst)]->frames.size(),
            static_cast<std::size_t>(kFrames) - 3u);
  EXPECT_EQ(h.net->frames_dropped_link_down(), 3u);
}

TEST(Routing, ProbeHysteresisIgnoresShortFlapAndDeclaresLastingFailure) {
  Harness h(8, TopologyConfig::fat_tree(2), /*adaptive=*/true);
  const auto hop = first_interior_hop(*h.net, 0, 7);
  ASSERT_GE(hop.first, 0);
  const auto pristine = h.net->route(0, 7);  // static-table route
  const Time interval = Time::micros(100.0);  // the fabric's probe interval

  // Flap: down at t=0, back up one probe interval later — well inside
  // the three-probe detection window.  No declaration may result.
  h.net->set_interior_link_state(hop.first, hop.second, false);
  h.eng.schedule(interval, [&] {
    h.net->set_interior_link_state(hop.first, hop.second, true);
  });
  h.eng.run();
  EXPECT_EQ(h.net->route_epoch(), 0u);
  EXPECT_TRUE(h.net->links_declared_down().empty());

  // Lasting failure: down and held.  The heartbeat plane alone (no data
  // frames at all) must declare it after three probe intervals.
  h.net->set_interior_link_state(hop.first, hop.second, false);
  h.eng.run();
  EXPECT_EQ(h.net->route_epoch(), 1u);
  EXPECT_EQ(h.net->links_declared_down().size(), 1u);

  // Repair: link comes back and holds; after two probe intervals the
  // plane restores the pristine static tables.
  EXPECT_NE(h.net->route(0, 7), pristine);  // currently on the alternate
  h.net->set_interior_link_state(hop.first, hop.second, true);
  h.eng.run();
  EXPECT_EQ(h.net->route_epoch(), 2u);
  EXPECT_TRUE(h.net->links_declared_down().empty());
  EXPECT_EQ(h.net->route(0, 7), pristine);
}

TEST(Routing, RequestRerouteDeclaresDarkLinksAndFailsWhenPartitioned) {
  Harness h(8, TopologyConfig::fat_tree(2), /*adaptive=*/true);
  int src = 0, dst = -1;
  for (int d = 1; d < 8; ++d) {
    if (first_interior_hop(*h.net, 0, d).first >= 0) {
      dst = d;
      break;
    }
  }
  ASSERT_GE(dst, 0);
  const int edge = first_interior_hop(*h.net, src, dst).first;

  // Cut the spine link the live route uses; request_reroute is
  // end-to-end evidence, so it declares immediately (no probe wait).
  const auto hop = first_interior_hop(*h.net, src, dst);
  h.net->set_interior_link_state(hop.first, hop.second, false);
  EXPECT_TRUE(h.net->request_reroute(src, dst));
  EXPECT_GE(h.net->route_epoch(), 1u);
  h.net->inject(make_frame(src, dst));
  h.eng.run();
  EXPECT_EQ(h.sinks[static_cast<std::size_t>(dst)]->frames.size(), 1u);

  // Cut every remaining uplink of the source's edge switch: now no
  // alternate exists and the request must fail (caller escalates).
  const auto& spec = h.net->plan().switches[static_cast<std::size_t>(edge)];
  for (const auto& port : spec.ports) {
    if (port.peer_switch >= 0) {
      h.net->set_interior_link_state(edge, port.peer_switch, false);
    }
  }
  EXPECT_FALSE(h.net->request_reroute(src, dst));
}

TEST(Routing, InteriorLinkCountersUseNormalizedUndirectedNames) {
  // Satellite fix: both directions of an interior link tally into one
  // counter named net/link/s<min>-s<max>; no reversed-orientation name
  // may exist.
  Harness h(8, TopologyConfig::fat_tree(2), /*adaptive=*/false);
  h.net->inject(make_frame(0, 7));
  h.net->inject(make_frame(7, 0));
  h.eng.run();

  std::uint64_t link_counters = 0;
  for (const auto& s : h.eng.counters().snapshot()) {
    if (s.name.rfind("net/link/s", 0) != 0) continue;
    ++link_counters;
    const auto dash = s.name.find("-s", 10);
    ASSERT_NE(dash, std::string::npos);
    const int lo = std::stoi(s.name.substr(10, dash - 10));
    const int hi = std::stoi(s.name.substr(dash + 2));
    EXPECT_LT(lo, hi) << "counter " << s.name
                      << " is not normalized to s<min>-s<max>";
  }
  EXPECT_GT(link_counters, 0u);
}

// ---------------------------------------------------------------------
// ECMP property contract, across all five topologies.
// ---------------------------------------------------------------------

struct Shape {
  const char* name;
  std::size_t hosts;
  TopologyConfig topo;
};

std::vector<Shape> all_shapes() {
  return {
      {"star", 8, TopologyConfig::star()},
      {"fattree2", 8, TopologyConfig::fat_tree(2)},
      {"fattree3", 16, TopologyConfig::fat_tree(3)},
      {"torus2", 8, TopologyConfig::torus(2)},
      {"torus3", 8, TopologyConfig::torus(3, 2, 2, 2)},
  };
}

/// Reference BFS switch-hop distance over links the routing plane
/// believes up.
std::vector<int> bfs_dist(const Network& net, int root) {
  const auto& plan = net.plan();
  std::vector<int> dist(plan.switches.size(), -1);
  std::vector<int> queue{root};
  dist[static_cast<std::size_t>(root)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int at = queue[head];
    const auto down = net.links_declared_down();
    for (const auto& port : plan.switches[static_cast<std::size_t>(at)].ports) {
      const int peer = port.peer_switch;
      if (peer < 0 || dist[static_cast<std::size_t>(peer)] >= 0) continue;
      const auto key = std::make_pair(std::min(at, peer), std::max(at, peer));
      if (std::find(down.begin(), down.end(), key) != down.end()) continue;
      dist[static_cast<std::size_t>(peer)] = dist[static_cast<std::size_t>(at)] + 1;
      queue.push_back(peer);
    }
  }
  return dist;
}

/// Walks every path reachable by always following ecmp_ports; checks
/// each is loop-free and exactly minimal.  Returns the paths explored.
void check_alternates(const Network& net, int src, int dst) {
  const auto& plan = net.plan();
  const int src_sw = plan.hosts[static_cast<std::size_t>(src)].sw;
  const int dst_sw = plan.hosts[static_cast<std::size_t>(dst)].sw;
  const auto dist = bfs_dist(net, dst_sw);
  ASSERT_GE(dist[static_cast<std::size_t>(src_sw)], 0);

  std::size_t explored = 0;
  std::vector<int> path{src_sw};
  std::set<int> on_path{src_sw};
  // Iterative DFS over the alternate DAG (distance strictly decreases,
  // so recursion depth is bounded by the diameter).
  struct VisitFn {
    const Network& net;
    const TopologyPlan& plan;
    const std::vector<int>& dist;
    int dst;
    int dst_sw;
    std::size_t* explored;
    void walk(std::vector<int>& path, std::set<int>& on_path) {
      const int sw = path.back();
      const auto ports = net.ecmp_ports(sw, dst);
      ASSERT_FALSE(ports.empty()) << "no alternate from switch " << sw;
      for (const std::size_t p : ports) {
        const auto& port = plan.switches[static_cast<std::size_t>(sw)].ports[p];
        if (port.host >= 0) {
          EXPECT_EQ(port.host, dst);
          EXPECT_EQ(sw, dst_sw);
          // Minimality: switches visited == shortest distance + 1.
          EXPECT_EQ(path.size(),
                    static_cast<std::size_t>(dist[static_cast<std::size_t>(
                        path.front())]) + 1);
          ++*explored;
          continue;
        }
        const int peer = port.peer_switch;
        EXPECT_EQ(on_path.count(peer), 0u)
            << "alternate revisits switch " << peer << " (loop)";
        // Strict progress toward the destination.
        EXPECT_EQ(dist[static_cast<std::size_t>(peer)],
                  dist[static_cast<std::size_t>(sw)] - 1);
        path.push_back(peer);
        on_path.insert(peer);
        walk(path, on_path);
        on_path.erase(peer);
        path.pop_back();
      }
    }
  };
  VisitFn visit{net, plan, dist, dst, dst_sw, &explored};
  visit.walk(path, on_path);
  EXPECT_GT(explored, 0u);
}

TEST(Routing, EcmpAlternatesAreMinimalAndLoopFreeOnAllTopologies) {
  for (const Shape& shape : all_shapes()) {
    SCOPED_TRACE(shape.name);
    Harness h(shape.hosts, shape.topo, /*adaptive=*/true);
    for (std::size_t s = 0; s < shape.hosts; ++s) {
      for (std::size_t d = 0; d < shape.hosts; ++d) {
        if (s == d) continue;
        check_alternates(*h.net, static_cast<int>(s), static_cast<int>(d));
      }
    }
  }
}

TEST(Routing, PathLatencyMatchesMeasuredDeliveryOverRevergedRoute) {
  // After a cut and re-convergence, path_latency must price the route
  // frames actually take: predicted == measured on an idle fabric, for
  // every multi-hop shape.
  for (const Shape& shape : all_shapes()) {
    if (std::string(shape.name) == "star") continue;  // no interior links
    SCOPED_TRACE(shape.name);
    Harness h(shape.hosts, shape.topo, /*adaptive=*/true);
    int src = 0, dst = -1;
    for (std::size_t d = 1; d < shape.hosts; ++d) {
      if (first_interior_hop(*h.net, 0, static_cast<int>(d)).first >= 0) {
        dst = static_cast<int>(d);
        break;
      }
    }
    ASSERT_GE(dst, 0);
    const auto hop = first_interior_hop(*h.net, src, dst);
    h.net->set_interior_link_state(hop.first, hop.second, false);
    ASSERT_TRUE(h.net->request_reroute(src, dst));

    const Frame probe = make_frame(src, dst, Bytes(4096));
    const Time predicted = h.net->path_latency(src, dst, probe.wire);
    const Time injected_at = h.eng.now();
    h.net->inject(probe);
    h.eng.run();
    auto& sink = *h.sinks[static_cast<std::size_t>(dst)];
    ASSERT_EQ(sink.frames.size(), 1u);
    EXPECT_EQ(sink.times[0] - injected_at, predicted);
  }
}

TEST(Routing, ReconvergenceIsDeterministic) {
  // Same topology + same fault sequence + same traffic => identical
  // trace digests, including every kRouting record.
  auto run_once = [] {
    Harness h(8, TopologyConfig::fat_tree(2), /*adaptive=*/true);
    h.eng.tracer().enable();
    const auto hop = first_interior_hop(*h.net, 0, 7);
    h.net->set_interior_link_state(hop.first, hop.second, false);
    for (int i = 0; i < 6; ++i) h.net->inject(make_frame(0, 7));
    h.eng.run();
    h.net->request_reroute(0, 7);
    for (int i = 0; i < 6; ++i) h.net->inject(make_frame(7, 0));
    h.eng.run();
    return h.eng.tracer().digest();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace acc::net
