// Multi-hop fabric tests: routing determinism (torus dimension-order,
// fat-tree up/down), star equivalence with the flat model, per-hop
// latency accounting, the set_port_rate_factor contract, the
// corrupted/dropped byte-accounting fixes, interior-link fault recovery
// on a torus, and the Engine vs one-LP ParallelEngine fabric equivalence.
#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.hpp"
#include "collectives/collectives.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "model/calibration.hpp"
#include "net/lp_map.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/resource.hpp"

namespace acc {
namespace {

class RecordingEndpoint : public net::Endpoint {
 public:
  explicit RecordingEndpoint(sim::Engine& eng) : eng_(eng) {}
  void deliver(const net::Frame& frame) override {
    frames.push_back(frame);
    times.push_back(eng_.now());
  }
  std::vector<net::Frame> frames;
  std::vector<Time> times;

 private:
  sim::Engine& eng_;
};

net::Frame make_frame(int src, int dst, Bytes payload,
                      std::size_t packets = 1) {
  net::Frame f;
  f.src = src;
  f.dst = dst;
  f.payload = payload;
  f.wire = payload + Bytes(38 * packets);
  f.packet_count = packets;
  return f;
}

/// A fabric of `n` hosts, every host attached to a recording endpoint.
struct FabricRig {
  FabricRig(std::size_t n, net::NetworkConfig cfg) : net(eng, n, cfg) {
    for (std::size_t i = 0; i < n; ++i) {
      sinks.push_back(std::make_unique<RecordingEndpoint>(eng));
      net.attach(static_cast<int>(i), *sinks.back());
    }
  }
  sim::Engine eng;
  net::Network net;
  std::vector<std::unique_ptr<RecordingEndpoint>> sinks;
};

// ---------------------------------------------------------------------
// Routing.
// ---------------------------------------------------------------------

TEST(Topology, TorusRoutesAreMinimalAndDimensionOrdered) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyConfig::torus(2, 4, 4);
  sim::Engine eng;
  net::Network net(eng, 16, cfg);
  ASSERT_EQ(net.switch_count(), 16u);

  const auto wrap_dist = [](int a, int b, int extent) {
    const int d = std::abs(a - b);
    return std::min(d, extent - d);
  };
  for (int src = 0; src < 16; ++src) {
    for (int dst = 0; dst < 16; ++dst) {
      const auto route = net.route(src, dst);
      ASSERT_FALSE(route.empty());
      EXPECT_EQ(route.front(), src);  // one switch per torus node
      EXPECT_EQ(route.back(), dst);
      // Minimal: hops = wrap distance in x + wrap distance in y.
      const int dx = wrap_dist(src % 4, dst % 4, 4);
      const int dy = wrap_dist(src / 4, dst / 4, 4);
      EXPECT_EQ(route.size(), static_cast<std::size_t>(dx + dy + 1))
          << src << "->" << dst;
      // Dimension-ordered: once y changes, x never changes again.
      bool y_started = false;
      for (std::size_t i = 1; i < route.size(); ++i) {
        const bool x_moved = route[i] % 4 != route[i - 1] % 4;
        const bool y_moved = route[i] / 4 != route[i - 1] / 4;
        EXPECT_TRUE(x_moved != y_moved);  // one dimension per hop
        if (y_moved) y_started = true;
        if (y_started) {
          EXPECT_FALSE(x_moved) << src << "->" << dst;
        }
      }
    }
  }
}

TEST(Topology, FatTreeUpDownRoutesNeverReascend) {
  for (int levels : {2, 3}) {
    net::NetworkConfig cfg;
    cfg.topology = net::TopologyConfig::fat_tree(levels);
    sim::Engine eng;
    net::Network net(eng, 16, cfg);  // 4x4+4 Clos, or k=4 fat tree
    for (int src = 0; src < 16; ++src) {
      for (int dst = 0; dst < 16; ++dst) {
        if (src == dst) continue;
        const auto route = net.route(src, dst);
        // Levels ascend strictly to one apex, then descend strictly: a
        // route that descended may never go back up (up/down routing).
        bool descended = false;
        for (std::size_t i = 1; i < route.size(); ++i) {
          const int prev = net.switch_level(route[i - 1]);
          const int cur = net.switch_level(route[i]);
          EXPECT_NE(prev, cur);  // every hop changes level in a tree
          if (cur < prev) descended = true;
          if (descended) {
            EXPECT_LT(cur, prev) << "re-ascent on " << src << "->" << dst;
          }
        }
      }
    }
  }
}

TEST(Topology, BuildTopologyRejectsUnrealizableShapes) {
  // 3-level fat trees exist only for N = k^3/4, even k.
  EXPECT_THROW(net::build_topology(net::TopologyConfig::fat_tree(3), 10),
               std::invalid_argument);
  // Explicit torus extents must multiply to N.
  EXPECT_THROW(net::build_topology(net::TopologyConfig::torus(2, 3, 4), 16),
               std::invalid_argument);
  EXPECT_NO_THROW(net::build_topology(net::TopologyConfig::torus(2, 4, 4), 16));
}

// ---------------------------------------------------------------------
// Star equivalence and path latency.
// ---------------------------------------------------------------------

TEST(Topology, ExplicitStarIsDigestIdenticalToDefaultFabric) {
  const auto run = [](const net::TopologyConfig& topo) {
    apps::ClusterOptions opts;
    opts.topology = topo;
    apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp,
                             model::default_calibration(), opts);
    cluster.tracer().enable(/*ring_capacity=*/64);
    const auto r = coll::topology_allreduce(cluster, /*elements=*/256, /*seed=*/5);
    EXPECT_TRUE(r.verified);
    return cluster.tracer().digest();
  };
  EXPECT_EQ(run(net::TopologyConfig{}), run(net::TopologyConfig::star()));
}

TEST(Topology, MultiHopDeliveryTimeMatchesPathLatency) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyConfig::torus(2, 4, 4);
  FabricRig rig(16, cfg);

  // 0 -> 15 crosses two wrap hops (x: 0->3, y: 0->3) on an idle fabric.
  const net::Frame f = make_frame(0, 15, Bytes::kib(8), 6);
  EXPECT_EQ(rig.net.hop_count(0, 15), 3u);
  const Time predicted = rig.net.path_latency(0, 15, f.wire);
  rig.net.inject(f);
  rig.eng.run();

  ASSERT_EQ(rig.sinks[15]->frames.size(), 1u);
  EXPECT_EQ(rig.sinks[15]->times[0], predicted);
  // The propagation floor (wire = 0) is strictly below the loaded value,
  // and a longer path costs more.
  EXPECT_LT(rig.net.path_latency(0, 15), predicted);
  EXPECT_GT(predicted, rig.net.path_latency(0, 1, f.wire));
}

// ---------------------------------------------------------------------
// Accounting fixes: corruption, drop-tail, per-port peaks.
// ---------------------------------------------------------------------

TEST(Topology, CorruptedFramesDoNotCountAsForwardedBytes) {
  FabricRig rig(2, {});
  rig.net.set_corruption(1.0, /*seed=*/7);
  const net::Frame f = make_frame(0, 1, Bytes::kib(4), 3);
  rig.net.inject(f);
  rig.eng.run();

  // The frame crosses the fabric and is delivered (the endpoint's CRC
  // rejects it there), so it is forwarded — but its bytes land in the
  // corrupted tally, not the clean one.
  ASSERT_EQ(rig.sinks[1]->frames.size(), 1u);
  EXPECT_TRUE(rig.sinks[1]->frames[0].corrupted);
  EXPECT_EQ(rig.net.frames_forwarded(), 1u);
  EXPECT_EQ(rig.net.frames_corrupted(), 1u);
  EXPECT_EQ(rig.net.bytes_forwarded(), Bytes::zero());
  EXPECT_EQ(rig.net.bytes_corrupted(), f.wire);
}

TEST(Topology, DropTailLossesNeverLeakIntoForwardedBytes) {
  net::NetworkConfig cfg;
  cfg.port_buffer = Bytes::kib(64);
  FabricRig rig(3, cfg);
  // Three simultaneous 40 KiB bursts into one port: one fits, two drop.
  for (int src : {1, 2, 1}) {
    rig.net.inject(make_frame(src, 0, Bytes::kib(40), 28));
  }
  rig.eng.run();

  ASSERT_EQ(rig.sinks[0]->frames.size(), 1u);
  EXPECT_EQ(rig.net.frames_dropped(), 2u);
  EXPECT_EQ(rig.net.bytes_forwarded(), rig.sinks[0]->frames[0].wire);
}

TEST(Topology, PerPortPeaksTrackTheGlobalMaximum) {
  net::NetworkConfig cfg;
  cfg.port_buffer = Bytes::mib(1);
  FabricRig rig(3, cfg);
  rig.net.inject(make_frame(1, 0, Bytes::kib(40), 28));
  rig.net.inject(make_frame(2, 0, Bytes::kib(40), 28));
  rig.net.inject(make_frame(0, 2, Bytes::kib(8), 6));
  rig.eng.run();

  const auto peaks = rig.net.per_port_peak_occupancy();
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0], rig.net.peak_buffer_occupancy(0));
  EXPECT_GT(peaks[0], peaks[2]);       // two queued bursts vs one
  EXPECT_EQ(peaks[1], Bytes::zero());  // nothing sent toward node 1
  Bytes max = Bytes::zero();
  for (Bytes b : peaks) max = std::max(max, b);
  // On a star every port is host-facing, so the global peak is the
  // per-port maximum.
  EXPECT_EQ(rig.net.peak_buffer_occupancy(), max);
}

// ---------------------------------------------------------------------
// set_port_rate_factor contract.
// ---------------------------------------------------------------------

TEST(Topology, PortRateFactorRejectsNonPositiveAndClampsAboveOne) {
  FabricRig rig(2, {});
  EXPECT_THROW(rig.net.set_port_rate_factor(1, 0.0), std::invalid_argument);
  EXPECT_THROW(rig.net.set_port_rate_factor(1, -0.5), std::invalid_argument);
  EXPECT_THROW(
      rig.net.set_port_rate_factor(1,
                                   std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  rig.net.set_port_rate_factor(1, 2.0);
  EXPECT_EQ(rig.net.port_rate_factor(1), 1.0);
}

TEST(Topology, PortRateFactorRestoreIsExact) {
  FabricRig degraded(2, {});
  FabricRig pristine(2, {});
  const net::Frame f = make_frame(0, 1, Bytes::kib(32), 23);
  // Degrade and restore before any traffic: the restored port must time
  // frames exactly like a port that was never touched (no drift from
  // round-tripping the rate through a double multiply).
  degraded.net.set_port_rate_factor(1, 0.37);
  degraded.net.set_port_rate_factor(1, 1.0);
  EXPECT_EQ(degraded.net.path_latency(0, 1, f.wire),
            pristine.net.path_latency(0, 1, f.wire));
  degraded.net.inject(f);
  pristine.net.inject(f);
  degraded.eng.run();
  pristine.eng.run();
  ASSERT_EQ(degraded.sinks[1]->times.size(), 1u);
  EXPECT_EQ(degraded.sinks[1]->times[0], pristine.sinks[1]->times[0]);
}

TEST(FifoResource, SetRateRescaledStretchesOnlyTheUnservedBacklog) {
  sim::Engine eng;
  sim::FifoResource res(eng, Bandwidth::mbit_per_sec(8.0));  // 1 MB/s
  const Time first = res.enqueue(Bytes::mib(1));
  // Halve the rate: the whole first transfer is still unserved backlog
  // (nothing has run), so it re-times to twice as long, and the second
  // transfer serializes at the new rate behind it: 2x + 2x = 4x.
  res.set_rate_rescaled(Bandwidth::mbit_per_sec(4.0));
  const Time second = res.enqueue(Bytes::mib(1));
  EXPECT_EQ(second.as_nanos(), 4 * first.as_nanos());
  // Restoring re-compresses what is still queued: 4x / 2 + 1x = 3x.
  res.set_rate_rescaled(Bandwidth::mbit_per_sec(8.0));
  const Time third = res.enqueue(Bytes::mib(1));
  EXPECT_EQ(third.as_nanos(), 3 * first.as_nanos());
}

TEST(Topology, DegradedPortStretchesQueuedBacklogForLaterFrames) {
  FabricRig slow(3, {});
  FabricRig fast(3, {});
  const net::Frame big = make_frame(1, 0, Bytes::kib(256), 180);
  const net::Frame tail = make_frame(2, 0, Bytes::kib(8), 6);
  for (auto* rig : {&slow, &fast}) {
    rig->net.inject(big);
    // Mid-serialization of the big burst, degrade the port in one rig
    // only; the tail frame then queues behind a stretched backlog.
    rig->eng.schedule(Time::micros(200), [rig, tail, is_slow = rig == &slow] {
      if (is_slow) rig->net.set_port_rate_factor(0, 0.25);
      rig->net.inject(tail);
    });
    rig->eng.run();
  }
  ASSERT_EQ(slow.sinks[0]->frames.size(), 2u);
  ASSERT_EQ(fast.sinks[0]->frames.size(), 2u);
  // The first frame's completion was booked before the change and keeps
  // its time; the tail frame sees the rescaled queue and lands later.
  EXPECT_EQ(slow.sinks[0]->times[0], fast.sinks[0]->times[0]);
  EXPECT_GT(slow.sinks[0]->times[1], fast.sinks[0]->times[1]);
}

// ---------------------------------------------------------------------
// Topology-aware collectives and interior-link faults.
// ---------------------------------------------------------------------

TEST(Topology, HopOrderedRanksStartAtRootAndAreSorted) {
  apps::ClusterOptions opts;
  opts.topology = net::TopologyConfig::fat_tree(2);
  apps::SimCluster cluster(16, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  const auto order = coll::hop_ordered_ranks(cluster, /*root=*/5);
  ASSERT_EQ(order.size(), 16u);
  EXPECT_EQ(order[0], 5u);
  auto& net = cluster.network();
  for (std::size_t i = 2; i < order.size(); ++i) {
    EXPECT_LE(net.hop_count(5, static_cast<int>(order[i - 1])),
              net.hop_count(5, static_cast<int>(order[i])));
  }
}

TEST(Topology, CollectivesVerifyOnMultiHopFabrics) {
  const net::TopologyConfig topologies[] = {
      net::TopologyConfig::fat_tree(2),
      net::TopologyConfig::fat_tree(3),  // k = 4 at N = 16
      net::TopologyConfig::torus(2),
  };
  for (const auto& topo : topologies) {
    apps::ClusterOptions opts;
    opts.topology = topo;
    apps::SimCluster cluster(16, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), opts);
    EXPECT_TRUE(coll::topology_broadcast(cluster, 512, 31).verified);
    EXPECT_TRUE(coll::topology_reduce(cluster, 512, 32).verified);
    EXPECT_TRUE(coll::topology_allreduce(cluster, 512, 33).verified);
  }
}

TEST(Topology, InteriorLinkOutageOnTorusRecoversDeterministically) {
  apps::ClusterOptions opts;
  opts.topology = net::TopologyConfig::torus(2, 4, 4);
  opts.inic_hw_retransmit = true;
  opts.inic_max_retries = 64;

  // Clean run sizes the outage window.
  Time clean_total;
  {
    apps::SimCluster cluster(16, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), opts);
    const auto r = coll::topology_allreduce(cluster, 4096, 23);
    ASSERT_TRUE(r.verified);
    clean_total = r.total;
  }

  fault::FaultPlan plan;
  plan.with_seed(7).with_interior_link_down(0, 1, clean_total * 0.2,
                                            clean_total * 0.4);
  const auto faulted = [&] {
    apps::SimCluster cluster(16, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), opts);
    cluster.tracer().enable(/*ring_capacity=*/64);
    cluster.engine().set_time_budget(Time::seconds(5));
    fault::FaultInjector injector(cluster, plan);
    const auto r = coll::topology_allreduce(cluster, 4096, 23);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(cluster.network().frames_dropped_link_down(), 0u);
    std::uint64_t retransmits = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      retransmits += cluster.card(i).retransmits();
    }
    EXPECT_GT(retransmits, 0u);
    return cluster.tracer().digest();
  };
  // Same plan, same seeds: the recovery replays bit-identically.
  EXPECT_EQ(faulted(), faulted());
}

TEST(Fault, RejectsBadRateFactorsAndNonAdjacentInteriorLinks) {
  apps::ClusterOptions opts;
  opts.topology = net::TopologyConfig::torus(2, 4, 4);
  apps::SimCluster cluster(16, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);

  fault::FaultPlan zero_rate;
  zero_rate.with_port_degrade(1, Time::millis(1), Time::millis(1), 0.0);
  EXPECT_THROW(fault::FaultInjector(cluster, zero_rate),
               std::invalid_argument);

  fault::FaultPlan above_one;
  above_one.with_port_degrade(1, Time::millis(1), Time::millis(1), 1.5);
  EXPECT_THROW(fault::FaultInjector(cluster, above_one),
               std::invalid_argument);

  // Switches 0 and 5 differ in both torus dimensions: no direct link.
  fault::FaultPlan diagonal;
  diagonal.with_interior_link_down(0, 5, Time::millis(1), Time::millis(1));
  EXPECT_THROW(fault::FaultInjector(cluster, diagonal),
               std::invalid_argument);

  // A star has no interior links at all.
  apps::SimCluster star(4, apps::Interconnect::kInicIdeal);
  fault::FaultPlan on_star;
  on_star.with_interior_link_down(0, 1, Time::millis(1), Time::millis(1));
  EXPECT_THROW(fault::FaultInjector(star, on_star), std::invalid_argument);
}


// ---------------------------------------------------------------------
// One lane model: a fabric built on a plain Engine and one built on a
// one-LP ParallelEngine are the same fabric.
// ---------------------------------------------------------------------

/// Everything a seeded injection run leaves behind.
struct InjectionOutcome {
  std::uint64_t digest = 0;
  std::vector<std::pair<std::uint64_t, Time>> delivered;  // (id, at)
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_dropped = 0;
  Bytes bytes_forwarded = Bytes::zero();
  Bytes peak = Bytes::zero();
  std::vector<Bytes> port_peaks;
};

/// 256 seeded frames between random hosts of a 16-host fat tree,
/// injected at random instants on `eng` (the fabric's host engine) and
/// overflowing its 32 KiB port buffers, then `run` drains the engine.
InjectionOutcome run_seeded_injections(sim::Engine& eng, net::Fabric& fabric,
                                       const std::function<void()>& run) {
  constexpr int kHosts = 16;
  eng.tracer().enable(/*ring_capacity=*/64);
  std::vector<std::unique_ptr<RecordingEndpoint>> sinks;
  for (int h = 0; h < kHosts; ++h) {
    sinks.push_back(std::make_unique<RecordingEndpoint>(eng));
    fabric.attach(h, *sinks.back());
  }
  Rng rng(/*seed=*/22);
  for (int k = 0; k < 256; ++k) {
    const int src = static_cast<int>(rng.below(kHosts));
    const int dst = (src + 1 + static_cast<int>(rng.below(kHosts - 1))) %
                    kHosts;
    const net::Frame f = make_frame(src, dst, Bytes(64 + rng.below(16384)),
                                    1 + rng.below(8));
    eng.schedule_at(Time::nanos(static_cast<std::int64_t>(rng.below(200000))),
                    [&fabric, f] { fabric.inject(f); });
  }
  run();
  InjectionOutcome out;
  out.digest = eng.tracer().digest();
  for (const auto& sink : sinks) {
    for (std::size_t i = 0; i < sink->frames.size(); ++i) {
      out.delivered.emplace_back(sink->frames[i].id, sink->times[i]);
    }
  }
  out.frames_forwarded = fabric.frames_forwarded();
  out.frames_dropped = fabric.frames_dropped();
  out.bytes_forwarded = fabric.bytes_forwarded();
  out.peak = fabric.peak_buffer_occupancy();
  out.port_peaks = fabric.per_port_peak_occupancy();
  return out;
}

TEST(Fabric, EngineAndOneLpParallelEngineBuildTheSameFabric) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyConfig::fat_tree(2);
  cfg.port_buffer = Bytes::kib(32);

  sim::Engine eng;
  net::Fabric serial(eng, 16, cfg);
  const InjectionOutcome a =
      run_seeded_injections(eng, serial, [&eng] { eng.run(); });

  sim::ParallelEngine peng(1, sim::ParallelConfig{});
  net::TopologyPlan plan = net::build_topology(cfg.topology, 16);
  const net::LpPartition part = net::single_lp_partition(plan);
  net::Fabric one_lp(peng, part, std::move(plan), cfg);
  const InjectionOutcome b =
      run_seeded_injections(peng.lp(0), one_lp, [&peng] { peng.run(); });

  // The run exercises forwarding and drop-tail loss on a multi-hop path.
  EXPECT_GT(serial.switch_count(), 1u);
  EXPECT_GT(a.frames_forwarded, 0u);
  EXPECT_GT(a.frames_dropped, 0u);
  EXPECT_LE(a.peak, cfg.port_buffer);
  EXPECT_GT(a.peak, cfg.port_buffer - Bytes::kib(16));  // nearly full
  EXPECT_EQ(a.delivered.size(), a.frames_forwarded);
  EXPECT_NE(a.digest, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.frames_forwarded, b.frames_forwarded);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.bytes_forwarded, b.bytes_forwarded);
  EXPECT_EQ(a.peak, b.peak);
  EXPECT_EQ(a.port_peaks, b.port_peaks);
}

// ---------------------------------------------------------------------
// LP partition: one LP per switch, the given latency as lookahead
// ---------------------------------------------------------------------

TEST(LpPartition, LookaheadIsTheGivenLatencyOnMultiSwitchPlans) {
  const std::pair<const char*, net::TopologyConfig> families[] = {
      {"star", net::TopologyConfig::star()},
      {"fattree2", net::TopologyConfig::fat_tree(2)},
      {"fattree3", net::TopologyConfig::fat_tree(3)},
      {"torus2", net::TopologyConfig::torus(2)},
      {"torus3", net::TopologyConfig::torus(3)},
  };
  for (const auto& [label, config] : families) {
    const net::TopologyPlan plan = net::build_topology(config, 16);
    const net::LpPartition part =
        net::build_lp_partition(plan, Time::micros(2));
    ASSERT_EQ(plan.switches.size() == 1, std::string(label) == "star")
        << label;
    EXPECT_EQ(part.lp_count, plan.switches.size()) << label;
    for (std::size_t h = 0; h < plan.hosts.size(); ++h) {
      EXPECT_EQ(part.lp_of_host[h],
                static_cast<std::size_t>(plan.hosts[h].sw))
          << label << " host " << h;
    }
    // A star is one LP: no cross-LP link, so no conservative constraint.
    EXPECT_EQ(part.lookahead, plan.switches.size() > 1 ? Time::micros(2)
                                                       : Time::zero())
        << label;
  }
}

TEST(LpPartition, RejectsNonPositiveLinkLatency) {
  const net::TopologyPlan plan =
      net::build_topology(net::TopologyConfig::fat_tree(2), 16);
  // A zero latency can never support conservative progress on a
  // multi-LP plan.
  EXPECT_THROW(net::build_lp_partition(plan, Time::zero()),
               std::invalid_argument);
}

}  // namespace
}  // namespace acc
