// Multi-hop fabric suites: topology scaling and the host-vs-NIC
// collective backends, with the NIC-vs-host host-cost gate.
#include <stdexcept>

#include "collectives/collectives.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "runner/suites/suites.hpp"

namespace acc::runner::suites {

namespace {

/// One topology-scaling point: barrier + topology-aware broadcast and
/// reduce (1 KiB of doubles each) on an ideal-INIC cluster wired as
/// `topo`.  Counters summarize the fabric and its per-link congestion
/// tallies; verification failures throw so the runner marks the point
/// failed instead of reporting bogus numbers.
RunMetrics topology_metrics(const net::TopologyConfig& topo, std::size_t p) {
  return run_scenario(
      {.hosts = p, .options = {.topology = topo}},
      [](apps::SimCluster& cluster, fault::FaultInjector*, RunMetrics& m) {
        const auto bar = coll::barrier(cluster);
        const auto bcast = coll::topology_broadcast(cluster, /*elements=*/128,
                                                    /*seed=*/9);
        const auto red = coll::topology_reduce(cluster, /*elements=*/128,
                                               /*seed=*/11);
        if (!bar.verified || !bcast.verified || !red.verified) {
          throw std::runtime_error("topology collective failed verification");
        }
        net::Network& net = cluster.network();
        std::int64_t link_frames_total = 0;
        std::int64_t link_frames_max = 0;
        std::int64_t link_peak_queue_max = 0;
        const auto links = net.interior_link_stats();
        for (const auto& l : links) {
          const auto frames = i64(l.frames);
          link_frames_total += frames;
          link_frames_max = std::max(link_frames_max, frames);
          link_peak_queue_max =
              std::max(link_peak_queue_max, i64(l.peak_queue.count()));
        }
        m.sim_time = bar.total + bcast.total + red.total;
        m.counters = {
            {"switches", i64(net.switch_count())},
            {"interior_links", i64(links.size())},
            {"link_frames_total", link_frames_total},
            {"link_frames_max", link_frames_max},
            {"link_peak_queue_max_bytes", link_peak_queue_max},
            {"frames_forwarded", i64(net.frames_forwarded())},
            {"frames_dropped", i64(net.frames_dropped())}};
      });
}

/// One collectives-suite point: barrier + topology-aware allreduce on a
/// cluster wired as `topo`, with the collective backend under test.
/// The host backend runs over GigE TCP (the paper's software baseline);
/// the NIC backend runs on the ideal INIC whose cards host the trigger
/// tables.  The unbounded trace ring lets us count every kCpu / kIrq
/// record the run emitted — the host-cost signal the NIC engine is
/// supposed to drive to zero.
RunMetrics collective_metrics(apps::CollectiveBackend backend,
                              const net::TopologyConfig& topo,
                              std::size_t p, std::size_t elements) {
  const bool nic = backend == apps::CollectiveBackend::kNic;
  const Scenario s{
      .hosts = p,
      .interconnect = nic ? apps::Interconnect::kInicIdeal
                          : apps::Interconnect::kGigabitTcp,
      .options = {.topology = topo, .collective_backend = backend},
      .trace_ring = 0};
  return run_scenario(s, [&](apps::SimCluster& cluster, fault::FaultInjector*,
                             RunMetrics& m) {
    const auto bar = coll::barrier(cluster);
    const auto red = coll::topology_allreduce(cluster, elements, /*seed=*/7);
    if (!bar.verified || !red.verified) {
      throw std::runtime_error("collective failed verification");
    }
    std::int64_t host_cpu_events = 0;
    std::int64_t irq_events = 0;
    for (const auto& r : cluster.tracer().records()) {
      if (r.category == trace::Category::kCpu) ++host_cpu_events;
      if (r.category == trace::Category::kIrq) ++irq_events;
    }
    std::int64_t irq_delivered = 0;
    std::int64_t host_cpu_ns = 0;
    std::int64_t trigger_fires = 0;
    for (std::size_t i = 0; i < p; ++i) {
      hw::Cpu& cpu = cluster.node(i).cpu();
      irq_delivered += i64(cpu.interrupts_serviced());
      host_cpu_ns += cpu.total_compute_time().as_nanos() +
                     cpu.total_interrupt_time().as_nanos() +
                     cpu.total_protocol_time().as_nanos();
      if (nic) trigger_fires += i64(cluster.card(i).trigger_fires());
    }
    // ProcessGroup::join() reports absolute finish times, so the second
    // op's total is the whole timeline; the barrier column is its own.
    m.sim_time = red.total;
    m.counters = {{"barrier_ns", bar.total.as_nanos()},
                  {"allreduce_ns", (red.total - bar.total).as_nanos()},
                  {"host_cpu_events", host_cpu_events},
                  {"irq_events", irq_events},
                  {"irq_delivered", irq_delivered},
                  {"host_cpu_ns", host_cpu_ns},
                  {"trigger_fires", trigger_fires}};
  });
}

/// NIC-vs-host acceptance: at every grid point present for both
/// backends, the NIC plane must charge strictly fewer host CPU events
/// and interrupt deliveries.
int host_cost_gate(const std::vector<RunRecord>& records) {
  return twin_gate(
      records, "collective_backend", {"topology", "P"},
      [](const RunRecord& nic, const RunRecord& host) {
        const auto& n = nic.metrics;
        const auto& h = host.metrics;
        if (n.counter("host_cpu_events") < h.counter("host_cpu_events") &&
            n.counter("irq_delivered") < h.counter("irq_delivered")) {
          return false;
        }
        std::fprintf(stderr,
                     "HOST-COST REGRESSION %s: nic cpu/irq %lld/%lld vs "
                     "host %lld/%lld\n",
                     nic.name.c_str(),
                     static_cast<long long>(n.counter("host_cpu_events")),
                     static_cast<long long>(n.counter("irq_delivered")),
                     static_cast<long long>(h.counter("host_cpu_events")),
                     static_cast<long long>(h.counter("irq_delivered")));
        return true;
      },
      "host-cost check passed: the NIC backend beats the host backend on "
      "CPU events and interrupt deliveries everywhere");
}

/// One row of a fabric grid; `full_only` rows are skipped on the
/// reduced grid.
struct Grid {
  const char* label;  // "topology" param
  net::TopologyConfig config;
  std::size_t p;
  bool full_only;
};

}  // namespace

/// Star, fat-tree and torus fabrics (docs/NETWORK.md).  Reduced keeps
/// P <= 256 so CI and the TSan sweep stay fast; full adds the 1024-node
/// fat-tree and torus points.
Suite topology_suite(bool reduced) {
  const Grid grid[] = {
      {"star", net::TopologyConfig::star(), 64, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 64, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 256, false},
      {"torus2", net::TopologyConfig::torus(2), 64, false},
      {"torus3", net::TopologyConfig::torus(3), 256, false},
      {"fattree3", net::TopologyConfig::fat_tree(3), 1024, true},
      {"torus3", net::TopologyConfig::torus(3), 1024, true},
  };
  Suite suite{"fig_scaling_topology",
              {},
              {{"switches", "switches"},
               {"links", "interior_links"},
               {"link frames", "link_frames_total"},
               {"max/link", "link_frames_max"},
               {"peak queue (B)", "link_peak_queue_max_bytes"},
               {"drops", "frames_dropped"}}};
  for (const Grid& g : grid) {
    if (reduced && g.full_only) continue;
    add_point(suite, std::string(g.label) + "/P=" + num(g.p),
              {{"topology", g.label},
               {"shape", net::describe_topology(g.config, g.p)},
               {"P", num(g.p)}},
              [g] { return topology_metrics(g.config, g.p); });
  }
  return suite;
}

/// Backend (host/TCP vs NIC-resident) × topology × rank-count grid.
/// Counters expose the host-cost split the NIC engine is meant to
/// eliminate — traced CPU/IRQ event counts, interrupts delivered, summed
/// host CPU nanoseconds — plus the trigger-fire tally on the card plane.
Suite collectives_suite(bool reduced) {
  const Grid grid[] = {
      {"star", net::TopologyConfig::star(), 8, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, false},
      {"torus2", net::TopologyConfig::torus(2), 16, false},
      {"star", net::TopologyConfig::star(), 16, true},
      {"fattree2", net::TopologyConfig::fat_tree(2), 64, true},
      {"fattree3", net::TopologyConfig::fat_tree(3), 16, true},
      {"torus3", net::TopologyConfig::torus(3), 27, true},
  };
  constexpr std::size_t kElements = 256;
  Suite suite{"collectives",
              {},
              {{"barrier (us)", "barrier_ns", 1e-3, 1},
               {"allreduce (us)", "allreduce_ns", 1e-3, 1},
               {"cpu events", "host_cpu_events"},
               {"irq events", "irq_events"},
               {"irqs", "irq_delivered"},
               {"host cpu (us)", "host_cpu_ns", 1e-3, 1},
               {"trig fires", "trigger_fires"}},
              host_cost_gate};
  for (const Grid& g : grid) {
    if (reduced && g.full_only) continue;
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      add_point(suite,
                std::string(apps::to_string(backend)) + "/" + g.label +
                    "/P=" + num(g.p),
                {{"collective_backend", apps::to_string(backend)},
                 {"topology", g.label},
                 {"P", num(g.p)},
                 {"elements", num(kElements)}},
                [backend, g] {
                  return collective_metrics(backend, g.config, g.p,
                                            kElements);
                });
    }
  }
  return suite;
}

}  // namespace acc::runner::suites
