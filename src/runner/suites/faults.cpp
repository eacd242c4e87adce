// Fault suites: permanent link cuts under adaptive routing, scripted
// fault storms against the verified apps, and the open-loop KV serving
// tail; each with its gate where it has one.  Every fault plan is built
// before its cluster and armed by run_scenario().
#include <cstring>
#include <stdexcept>

#include "apps/fft_app.hpp"
#include "apps/kv_app.hpp"
#include "apps/sort_app.hpp"
#include "collectives/collectives.hpp"
#include "inic/card.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "runner/suites/suites.hpp"
#include "sim/process.hpp"

namespace acc::runner::suites {

namespace {

// Failover-recovery suite

/// Interior links incident to host 0's attach switch, normalized and
/// deduplicated — the cut candidates (host 0's off-switch traffic is
/// guaranteed to cross one of them).
std::vector<std::pair<int, int>> failover_cut_candidates(
    const net::TopologyPlan& plan) {
  const int sw = plan.hosts.front().sw;
  std::vector<std::pair<int, int>> links;
  for (const auto& port : plan.switches[static_cast<std::size_t>(sw)].ports) {
    const std::pair<int, int> key = std::minmax(sw, port.peer_switch);
    if (port.peer_switch >= 0 &&
        std::find(links.begin(), links.end(), key) == links.end()) {
      links.push_back(key);
    }
  }
  return links;
}

/// One failover point: allreduce spanning `cuts` permanent interior-link
/// failures, a broadcast after re-convergence, then a 256 KiB bulk
/// transfer over the re-converged route to measure post-failover
/// goodput.  Recovery latency is the gap from the first cut's fault edge
/// to the fabric's first re-convergence instant (kRouting records).
RunMetrics failover_metrics(apps::CollectiveBackend backend,
                            const net::TopologyConfig& topo, std::size_t p,
                            int cuts) {
  constexpr std::size_t kElements = 256;
  Scenario s{.hosts = p,
             .options = {.inic_hw_retransmit = true,  // go-back-N recovers
                         .inic_max_retries = 8,
                         // Fabric failover must carry the day.
                         .degraded_fallback = false,
                         .topology = topo,
                         .adaptive_routing = true,
                         .collective_backend = backend}};
  const auto collectives = [](apps::SimCluster& cluster) {
    if (!coll::topology_allreduce(cluster, kElements, 5).verified ||
        !coll::topology_broadcast(cluster, kElements, 6).verified) {
      throw std::runtime_error("collective failed verification");
    }
  };
  // Healthy yardstick: the same collectives with no faults, used to
  // place the cut instants at meaningful fractions of the timeline.
  const Time clean =
      run_scenario(s, [&](apps::SimCluster& cluster, fault::FaultInjector*,
                          RunMetrics& m) {
        collectives(cluster);
        m.sim_time = cluster.engine().now();
      }).sim_time;

  const auto links = failover_cut_candidates(net::build_topology(topo, p));
  if (links.size() <= static_cast<std::size_t>(cuts)) {
    throw std::runtime_error("cut plan would strand the attach switch");
  }
  const Time first_cut = clean * 0.25;
  s.faults.emplace();
  for (std::size_t c = 0; c < static_cast<std::size_t>(cuts); ++c) {
    s.faults->with_interior_link_failed(links[c].first, links[c].second,
                                        clean * (0.25 + 0.15 * c));
  }
  s.trace_ring = 0;  // retain kRouting records
  s.time_budget = Time::seconds(5);
  return run_scenario(s, [&](apps::SimCluster& cluster, fault::FaultInjector*,
                             RunMetrics& m) {
    collectives(cluster);
    const Time collectives_end = cluster.engine().now();

    // Post-failover goodput: one bulk message host 0 -> host p-1, timed
    // end to end (send through delivery) over the re-converged tables.
    const Bytes bulk = Bytes::kib(256);
    sim::ProcessGroup group(*cluster.parallel());
    group.spawn(cluster.transfer(0, static_cast<int>(p) - 1, bulk, 77));
    group.spawn([](apps::SimCluster& c, std::size_t dst) -> sim::Process {
      (void)co_await c.inbox(dst).recv();
    }(cluster, p - 1));
    group.join();
    const Time bulk_time = cluster.engine().now() - collectives_end;

    // First re-convergence at or after the first cut.
    Time reconverged = Time::zero();
    for (const auto& r : cluster.tracer().records()) {
      if (r.category != trace::Category::kRouting) continue;
      if (std::strcmp(r.name, "routing/reconverge") != 0) continue;
      if (r.ts < first_cut) continue;
      reconverged = r.ts;
      break;
    }
    std::uint64_t peers_lost = 0;
    std::uint64_t reroute_grants = 0;
    for (std::size_t i = 0; i < p; ++i) {
      peers_lost += cluster.card(i).peers_lost();
      reroute_grants += cluster.card(i).reroutes();
    }
    if (peers_lost != 0) {
      throw std::runtime_error("failover wrote a peer off as unreachable");
    }
    std::int64_t reroute_requests = 0;
    for (const auto& c : cluster.counters_snapshot()) {
      if (c.name == "net/reroute_requests") reroute_requests = c.value;
    }
    m.sim_time = cluster.engine().now();
    m.counters = {
        {"clean_ns", clean.as_nanos()},
        {"faulted_ns", collectives_end.as_nanos()},
        {"cut_ns", first_cut.as_nanos()},
        {"recovery_latency_ns", (reconverged - first_cut).as_nanos()},
        {"route_epochs", i64(cluster.network().route_epoch())},
        {"reroute_requests", reroute_requests},
        {"reroute_grants", i64(reroute_grants)},
        {"goodput_bytes_per_s",
         i64(static_cast<double>(bulk.count()) / bulk_time.as_seconds())},
    };
  });
}

/// Every point must have actually recovered through the fabric: at
/// least one re-convergence per cut, and a live post-failover route.
int recovery_gate(const std::vector<RunRecord>& records) {
  int regressions = 0;
  for (const auto& r : records) {
    if (!r.ok) continue;
    const auto cuts = std::stoll(param(r, "cuts"));
    const std::int64_t epochs = r.metrics.counter("route_epochs");
    const std::int64_t goodput = r.metrics.counter("goodput_bytes_per_s");
    if (epochs >= cuts && goodput > 0) continue;
    ++regressions;
    std::fprintf(stderr,
                 "RECOVERY REGRESSION %s: %lld epochs for %lld cuts, "
                 "goodput %lld B/s\n",
                 r.name.c_str(), static_cast<long long>(epochs),
                 static_cast<long long>(cuts),
                 static_cast<long long>(goodput));
  }
  if (regressions == 0) {
    std::puts("recovery check passed: every point re-converged and moved "
              "bulk data over the surviving paths");
  }
  return regressions;
}

// Chaos-recovery suite

/// The hardened 4-node INIC cluster every chaos point runs on.
const Scenario kChaosCluster{.hosts = 4,
                             .options = {.inic_hw_retransmit = true,
                                         .inic_max_retries = 16,
                                         .degraded_fallback = true}};
constexpr std::size_t kChaosFftN = 256;
constexpr std::size_t kChaosSortKeys = std::size_t{1} << 16;

/// One FFT or sort on the built cluster; returns its total.  A verified
/// run that fails verification throws.
Time run_chaos_app(apps::SimCluster& cluster, bool fft, bool verify) {
  const auto total = [verify](const auto& r) {
    if (verify && !r.verified) {
      throw std::runtime_error("chaos run failed verification");
    }
    return r.total;
  };
  if (fft) {
    return total(
        apps::run_parallel_fft(cluster, kChaosFftN, {.verify = verify}));
  }
  apps::SortRunOptions opts;
  opts.verify = verify;
  return total(apps::run_parallel_sort(cluster, kChaosSortKeys, opts));
}

/// Clean-run durations (the FFT verified, the sort timing-only),
/// memoized process-wide (thread-safe static init) so pooled points
/// share one baseline measurement per app.
Time chaos_clean_total(bool fft) {
  const auto clean = [](bool app) {
    const auto drive = [app](apps::SimCluster& cluster, fault::FaultInjector*,
                             RunMetrics& m) {
      m.sim_time = run_chaos_app(cluster, app, /*verify=*/app);
    };
    return run_scenario(kChaosCluster, drive).sim_time;
  };
  static const Time fft_total = clean(true);
  static const Time sort_total = clean(false);
  return fft ? fft_total : sort_total;
}

/// One row of the chaos table: the faults its storm combines, each at a
/// fixed fraction of the app's clean run time.
struct Storm {
  const char* label;
  bool burst_loss;
  bool corruption;
  double link_flap_at;  // node 1's link drops at this fraction; 0: never
  bool card_reset;
  bool slow_port;
  bool full_only;
};

fault::FaultPlan storm_plan(const Storm& storm, Time clean) {
  fault::FaultPlan plan;
  if (storm.burst_loss) {
    plan.with_burst_loss(
        clean * 0.05, clean * 3.0,
        {.p_good_to_bad = 0.05, .p_bad_to_good = 0.25, .loss_bad = 0.5});
  }
  if (storm.corruption) plan.with_corruption(clean * 0.05, clean * 3.0, 0.05);
  if (storm.link_flap_at > 0) {
    plan.with_link_down(1, clean * storm.link_flap_at, clean * 0.05);
  }
  if (storm.card_reset) plan.with_card_reset(2, clean * 0.10, clean * 0.25);
  if (storm.slow_port) {
    plan.with_port_degrade(1, clean * 0.10, clean * 0.60, /*rate_factor=*/0.1);
  }
  return plan;
}

/// One chaos point: the storm against a verified FFT or sort run on the
/// hardened 4-node INIC cluster.
RunMetrics chaos_recovery_metrics(bool fft, const Storm& storm) {
  const Time clean = chaos_clean_total(fft);
  Scenario s = kChaosCluster;
  s.time_budget = Time::seconds(30);
  s.faults = storm_plan(storm, clean);
  return run_scenario(s, [&](apps::SimCluster& cluster,
                             fault::FaultInjector* injector, RunMetrics& m) {
    const Time total = run_chaos_app(cluster, fft, /*verify=*/true);
    std::int64_t retransmits = 0;
    std::int64_t crc_drops = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      retransmits += i64(cluster.card(i).retransmits());
      crc_drops += i64(cluster.card(i).crc_drops());
    }
    m.sim_time = total;
    m.counters = {
        {"clean_ns", clean.as_nanos()},
        {"faulted_ns", total.as_nanos()},
        {"fault_events", i64(injector->events_fired())},
        {"fallback_transfers", i64(cluster.fallback_transfers())},
        {"retransmits", retransmits},
        {"crc_drops", crc_drops},
        {"net_drops", i64(cluster.network().frames_dropped())},
    };
  });
}

// Serving suite: open-loop KV tail latency (apps/kv_app.hpp)

constexpr std::size_t kServingClients = 4;
constexpr std::size_t kServingServers = 4;

RunMetrics serving_metrics(bool nic, const net::TopologyConfig& topo,
                           bool chaos, double rate_hz,
                           std::size_t requests_per_client) {
  // The NIC plane retries forever (inic_max_retries = 0): under chaos
  // the SLO question is "how *late* does a response get", never "does
  // it arrive" — a give-up would turn a tail-latency point into a
  // deadlock.
  Scenario s{.hosts = kServingClients + kServingServers,
             .interconnect = nic ? apps::Interconnect::kInicIdeal
                                 : apps::Interconnect::kGigabitTcp,
             .options = {.inic_hw_retransmit = nic,
                         .inic_max_retries = 0,
                         .topology = topo},
             .time_budget = Time::seconds(60)};
  if (chaos) {
    // The "30% loss" headline: a Gilbert-Elliott channel that spends 1/3
    // of its time (0.1 in, 0.2 out) in a bad state dropping 90% of
    // frames — ~30% average loss, in bursts rather than i.i.d., covering
    // the whole run.
    s.faults.emplace().with_burst_loss(
        Time::micros(50), Time::seconds(2),
        {.p_good_to_bad = 0.1, .p_bad_to_good = 0.2, .loss_bad = 0.9});
  }
  return run_scenario(s, [&](apps::SimCluster& cluster,
                             fault::FaultInjector* injector, RunMetrics& m) {
    const auto r = apps::run_kv_serving(
        cluster, {.clients = kServingClients,
                  .servers = kServingServers,
                  .requests_per_client = requests_per_client,
                  .rate_hz = rate_hz});
    if (!r.verified) {
      throw std::runtime_error("serving run failed verification");
    }
    m.sim_time = r.total;
    m.latency.present = true;
    m.latency.count = r.latency.count();
    m.latency.p50_ns = r.latency.percentile_ns(0.50);
    m.latency.p99_ns = r.latency.percentile_ns(0.99);
    m.latency.p999_ns = r.latency.percentile_ns(0.999);
    m.latency.mean_ns = r.latency.mean_ns();
    m.latency.max_ns = r.latency.max_ns();
    m.latency.goodput_bytes_per_sec = r.goodput_bytes_per_sec;
    m.counters = {
        {"requests", i64(r.requests)},
        {"responses", i64(r.responses)},
        {"p50_ns", i64(m.latency.p50_ns)},
        {"p99_ns", i64(m.latency.p99_ns)},
        {"p999_ns", i64(m.latency.p999_ns)},
        {"goodput_bytes_per_sec", r.goodput_bytes_per_sec},
        {"net_drops", i64(cluster.network().frames_dropped())},
        {"fault_events", injector ? i64(injector->events_fired()) : 0},
    };
  });
}

/// The serving headline: under the same conditions the hardware
/// retransmission plane must hold a strictly better p99 than the host's
/// timeout-bound recovery (and no worse on a clean fabric, where both
/// planes are loss-free and the INIC should win on host costs alone).
/// A NIC point whose host twin (same topology, rate and chaos) is absent
/// or failed is skipped.
int tail_gate(const std::vector<RunRecord>& records) {
  return twin_gate(
      records, "plane", {"topology", "rate_hz", "chaos"},
      [](const RunRecord& nic, const RunRecord& host) {
        const std::uint64_t nic_p99 = nic.metrics.latency.p99_ns;
        const std::uint64_t host_p99 = host.metrics.latency.p99_ns;
        const bool bad = param(nic, "chaos") != "clean" ? nic_p99 >= host_p99
                                                        : nic_p99 > host_p99;
        if (bad) {
          std::fprintf(stderr,
                       "TAIL REGRESSION %s: NIC p99 %llu ns vs host %llu ns\n",
                       nic.name.c_str(),
                       static_cast<unsigned long long>(nic_p99),
                       static_cast<unsigned long long>(host_p99));
        }
        return bad;
      },
      "tail check passed: the NIC plane holds a better p99 than the host "
      "plane at every matched point");
}

}  // namespace

/// Single and double cuts per backend, with adaptive routing on and the
/// degraded TCP fallback off.  A point throws (the runner marks it
/// failed) if a collective fails verification or any card writes a peer
/// off.
Suite failover_suite(bool reduced) {
  struct Grid {
    const char* label;   // "topology" param
    net::TopologyConfig config;
    std::size_t p;
    int cuts;
    bool full_only;
  };
  const Grid grid[] = {
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, 1, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, 2, true},
      {"fattree3", net::TopologyConfig::fat_tree(3), 16, 1, true},
      {"torus2", net::TopologyConfig::torus(2), 8, 1, false},
      {"torus3", net::TopologyConfig::torus(3, 2, 2, 2), 8, 2, true},
  };
  Suite suite{"failover_recovery",
              {},
              {{"clean (ms)", "clean_ns", 1e-6, 3},
               {"faulted (ms)", "faulted_ns", 1e-6, 3},
               {"recovery (us)", "recovery_latency_ns", 1e-3, 1},
               {"goodput (MB/s)", "goodput_bytes_per_s", 1e-6, 1},
               {"epochs", "route_epochs"},
               {"grants", "reroute_grants"}},
              recovery_gate};
  for (const Grid& g : grid) {
    if (reduced && g.full_only) continue;
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      add_point(suite,
                std::string(apps::to_string(backend)) + "/" + g.label +
                    "/P=" + num(g.p) + "/cuts=" + std::to_string(g.cuts),
                {{"collective_backend", apps::to_string(backend)},
                 {"topology", g.label},
                 {"P", num(g.p)},
                 {"cuts", std::to_string(g.cuts)}},
                [backend, g] {
                  return failover_metrics(backend, g.config, g.p, g.cuts);
                });
    }
  }
  return suite;
}

/// Scripted fault storms (bursty loss, corruption, link flap, card
/// reset, degraded port, all-at-once) against verified FFT and sort runs
/// on a hardened INIC cluster.  Counters carry the clean-vs-faulted
/// timelines and the recovery machinery's visible work (fallback
/// transfers, retransmits, CRC drops).
Suite chaos_suite(bool reduced) {
  const Storm storms[] = {
      // label         burst  corrupt flap  reset  slow   full_only
      {"clean",        false, false,  0.00, false, false, false},
      {"burst_loss",   true,  false,  0.00, false, false, false},
      {"corruption",   false, true,   0.00, false, false, true},
      {"link_flap",    false, false,  0.30, false, false, true},
      {"card_reset",   false, false,  0.00, true,  false, false},
      {"slow_port",    false, false,  0.00, false, true,  true},
      {"everything",   true,  true,   0.40, true,  false, true},
  };
  Suite suite{"chaos_recovery",
              {},
              {{"clean (ms)", "clean_ns", 1e-6, 3},
               {"faulted (ms)", "faulted_ns", 1e-6, 3},
               {"fallback", "fallback_transfers"},
               {"retransmits", "retransmits"},
               {"crc drops", "crc_drops"}}};
  for (const Storm& storm : storms) {
    if (reduced && storm.full_only) continue;
    for (const bool fft : {true, false}) {
      if (reduced && !fft) continue;  // reduced grid: FFT only
      add_point(suite, std::string(fft ? "fft" : "sort") + "/" + storm.label,
                {{"app", fft ? "fft" : "sort"},
                 {"scenario", storm.label},
                 {"P", "4"},
                 {fft ? "n" : "keys",
                  fft ? num(kChaosFftN) : num(kChaosSortKeys)}},
                [fft, storm] { return chaos_recovery_metrics(fft, storm); });
    }
  }
  return suite;
}

/// The open-loop Zipf-skewed KV workload (apps/kv_app.hpp) over a
/// (plane × topology × arrival rate × chaos) grid — host TCP vs hardened
/// INIC, clean fabric vs sustained ~30% bursty loss.  Every point fills
/// RunMetrics::latency from the run's deterministic latency histogram
/// and mirrors the tail into counters; it throws if any response carries
/// a wrong value or a request goes unanswered.
Suite serving_suite(bool reduced) {
  struct Grid {
    const char* topo_label;  // "topology" param
    net::TopologyConfig config;
    double rate_hz;
    bool full_only;
  };
  const Grid grid[] = {
      {"star", net::TopologyConfig::star(), 20000.0, false},
      {"star", net::TopologyConfig::star(), 80000.0, true},
      {"fattree2", net::TopologyConfig::fat_tree(2), 20000.0, true},
  };
  const std::size_t requests_per_client = reduced ? 32 : 192;
  Suite suite{"serving_tail",
              {},
              {{"responses", "responses"},
               {"p50 (us)", "p50_ns", 1e-3, 1},
               {"p99 (us)", "p99_ns", 1e-3, 1},
               {"p999 (us)", "p999_ns", 1e-3, 1},
               {"goodput (MB/s)", "goodput_bytes_per_sec", 1e-6, 2},
               {"net drops", "net_drops"}},
              tail_gate};
  for (const Grid& g : grid) {
    if (reduced && g.full_only) continue;
    for (const bool nic : {false, true}) {
      for (const bool chaos : {false, true}) {
        const std::string rate_str =
            std::to_string(static_cast<long long>(g.rate_hz));
        add_point(suite,
                  std::string(nic ? "nic" : "host") + "/" + g.topo_label +
                      "/rate=" + rate_str + "/" + (chaos ? "loss30" : "clean"),
                  {{"plane", nic ? "nic" : "host"},
                   {"topology", g.topo_label},
                   {"rate_hz", rate_str},
                   {"chaos", chaos ? "loss30" : "clean"},
                   {"clients", num(kServingClients)},
                   {"servers", num(kServingServers)},
                   {"requests_per_client", num(requests_per_client)}},
                  [nic, g, chaos, requests_per_client] {
                    return serving_metrics(nic, g.config, chaos, g.rate_hz,
                                           requests_per_client);
                  });
      }
    }
  }
  return suite;
}

}  // namespace acc::runner::suites
