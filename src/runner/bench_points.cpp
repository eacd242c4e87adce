#include "runner/bench_points.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/kv_app.hpp"
#include "apps/sort_app.hpp"
#include "collectives/collectives.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "model/calibration.hpp"
#include "model/fft_model.hpp"
#include "model/sort_model.hpp"
#include "net/lp_workload.hpp"
#include "net/topology.hpp"
#include "sim/process.hpp"

namespace acc::runner {

namespace {

/// Machine-friendly interconnect names for point names / JSON params
/// (to_string() is the human form, with spaces and parentheses).
const char* slug(apps::Interconnect ic) {
  switch (ic) {
    case apps::Interconnect::kFastEthernetTcp: return "fast_ethernet";
    case apps::Interconnect::kGigabitTcp: return "gige";
    case apps::Interconnect::kInicIdeal: return "inic_ideal";
    case apps::Interconnect::kInicPrototype: return "inic_prototype";
  }
  return "?";
}

std::string num(std::size_t v) { return std::to_string(v); }

/// Fills the digest/event fields every traced point reports.
void capture_run(apps::SimCluster& cluster, RunMetrics& m) {
  m.digest = cluster.tracer().digest();
  m.trace_records = cluster.tracer().records_emitted();
  m.events = cluster.engine().events_executed();
}

RunMetrics fft_sim_metrics(apps::Interconnect ic, std::size_t n,
                           std::size_t p) {
  const Time serial = core::serial_fft_total(n);
  apps::SimCluster cluster(p, ic);
  cluster.tracer().enable(/*ring_capacity=*/256);
  apps::FftRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_fft(cluster, n, opts);
  RunMetrics m;
  m.sim_time = r.total;
  m.speedup = serial / r.total;
  m.counters = {{"compute_ns", r.compute.as_nanos()},
                {"transpose_ns", r.transpose.as_nanos()}};
  capture_run(cluster, m);
  return m;
}

RunMetrics sort_sim_metrics(apps::Interconnect ic, std::size_t keys,
                            std::size_t p) {
  const Time serial = core::serial_sort_total(keys);
  apps::SimCluster cluster(p, ic);
  cluster.tracer().enable(/*ring_capacity=*/256);
  apps::SortRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_sort(cluster, keys, opts);
  RunMetrics m;
  m.sim_time = r.total;
  m.speedup = serial / r.total;
  m.counters = {{"count_sort_ns", r.count_sort.as_nanos()},
                {"bucket_phase1_ns", r.bucket_phase1.as_nanos()},
                {"bucket_phase2_ns", r.bucket_phase2.as_nanos()},
                {"redistribution_ns", r.redistribution.as_nanos()}};
  capture_run(cluster, m);
  return m;
}

/// Sort run under a modified calibration (ablations).  No speedup — the
/// serial baseline of a non-default calibration is not what the ablation
/// compares against (each sweep is self-relative).
RunMetrics sort_ablation_metrics(const model::Calibration& cal,
                                 std::size_t keys, std::size_t p) {
  apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal, cal);
  cluster.tracer().enable(/*ring_capacity=*/256);
  apps::SortRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_sort(cluster, keys, opts);
  RunMetrics m;
  m.sim_time = r.total;
  m.counters = {{"redistribution_ns", r.redistribution.as_nanos()}};
  capture_run(cluster, m);
  return m;
}

RunMetrics transpose_metrics(std::size_t n, std::size_t p) {
  model::FftAnalyticModel fft_model;
  const Time host_compute = fft_model.host_transpose_compute_time(n, p);
  const Time inic = fft_model.inic_transpose_time(n, p);
  const Bytes partition = fft_model.partition_size(n, p);
  apps::SimCluster cluster(p, apps::Interconnect::kGigabitTcp);
  cluster.tracer().enable(/*ring_capacity=*/256);
  apps::FftRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_fft(cluster, n, opts);
  const Time comm = p == 1 ? Time::zero() : r.transpose - host_compute;
  RunMetrics m;
  m.sim_time = r.total;
  m.counters = {{"nic_comm_ns", comm.as_nanos()},
                {"nic_compute_ns", host_compute.as_nanos()},
                {"inic_transpose_ns", inic.as_nanos()},
                {"partition_bytes",
                 static_cast<std::int64_t>(partition.count())}};
  capture_run(cluster, m);
  return m;
}

/// One topology-scaling point: barrier + topology-aware broadcast and
/// reduce (1 KiB of doubles each) on an ideal-INIC cluster wired as
/// `topo`.  Counters summarize the fabric and its per-link congestion
/// tallies; verification failures throw so the runner marks the point
/// failed instead of reporting bogus numbers.
RunMetrics topology_metrics(const net::TopologyConfig& topo, std::size_t p) {
  apps::ClusterOptions opts;
  opts.topology = topo;
  apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  cluster.tracer().enable(/*ring_capacity=*/256);
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
    const auto frames = static_cast<std::int64_t>(l.frames);
    link_frames_total += frames;
    link_frames_max = std::max(link_frames_max, frames);
    link_peak_queue_max =
        std::max(link_peak_queue_max,
                 static_cast<std::int64_t>(l.peak_queue.count()));
  }
  RunMetrics m;
  m.sim_time = bar.total + bcast.total + red.total;
  m.counters = {
      {"switches", static_cast<std::int64_t>(net.switch_count())},
      {"interior_links", static_cast<std::int64_t>(links.size())},
      {"link_frames_total", link_frames_total},
      {"link_frames_max", link_frames_max},
      {"link_peak_queue_max_bytes", link_peak_queue_max},
      {"frames_forwarded", static_cast<std::int64_t>(net.frames_forwarded())},
      {"frames_dropped", static_cast<std::int64_t>(net.frames_dropped())}};
  capture_run(cluster, m);
  return m;
}

/// One collectives-suite point: barrier + topology-aware allreduce on a
/// cluster wired as `topo`, with the collective backend under test.
/// The host backend runs over GigE TCP (the paper's software baseline);
/// the NIC backend runs on the ideal INIC whose cards host the trigger
/// tables.  The unbounded tracer ring lets us count every kCpu / kIrq
/// record the run emitted — the host-cost signal the NIC engine is
/// supposed to drive to zero.
RunMetrics collective_metrics(apps::CollectiveBackend backend,
                              const net::TopologyConfig& topo,
                              std::size_t p, std::size_t elements) {
  apps::ClusterOptions opts;
  opts.topology = topo;
  opts.collective_backend = backend;
  const auto ic = backend == apps::CollectiveBackend::kNic
                      ? apps::Interconnect::kInicIdeal
                      : apps::Interconnect::kGigabitTcp;
  apps::SimCluster cluster(p, ic, model::default_calibration(), opts);
  cluster.tracer().enable(/*ring_capacity=*/0);  // retain all records
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
  for (std::size_t i = 0; i < p; ++i) {
    hw::Cpu& cpu = cluster.node(i).cpu();
    irq_delivered += static_cast<std::int64_t>(cpu.interrupts_serviced());
    host_cpu_ns += cpu.total_compute_time().as_nanos() +
                   cpu.total_interrupt_time().as_nanos() +
                   cpu.total_protocol_time().as_nanos();
  }
  std::int64_t trigger_fires = 0;
  if (backend == apps::CollectiveBackend::kNic) {
    for (std::size_t i = 0; i < p; ++i) {
      trigger_fires +=
          static_cast<std::int64_t>(cluster.card(i).trigger_fires());
    }
  }
  RunMetrics m;
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
  capture_run(cluster, m);
  return m;
}

// ---------------------------------------------------------------------
// Failover-recovery suite.
// ---------------------------------------------------------------------

apps::ClusterOptions failover_cluster_options(
    const net::TopologyConfig& topo, apps::CollectiveBackend backend) {
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;  // go-back-N is the recovery engine
  opts.inic_max_retries = 8;
  opts.degraded_fallback = false;  // fabric failover must carry the day
  opts.adaptive_routing = true;
  opts.topology = topo;
  opts.collective_backend = backend;
  return opts;
}

/// Interior links incident to host 0's attach switch, normalized and
/// deduplicated — the cut candidates (host 0's off-switch traffic is
/// guaranteed to cross one of them).
std::vector<std::pair<int, int>> failover_cut_candidates(net::Network& net) {
  const auto& plan = net.plan();
  const int sw = plan.hosts.front().sw;
  std::vector<std::pair<int, int>> links;
  for (const auto& port : plan.switches[static_cast<std::size_t>(sw)].ports) {
    if (port.peer_switch < 0) continue;
    const auto key = std::make_pair(std::min(sw, port.peer_switch),
                                    std::max(sw, port.peer_switch));
    if (std::find(links.begin(), links.end(), key) == links.end()) {
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
  // Healthy yardstick: the same collectives with no faults, used to
  // place the cut instants at meaningful fractions of the timeline.
  Time clean = Time::zero();
  {
    apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal,
                             model::default_calibration(),
                             failover_cluster_options(topo, backend));
    if (!coll::topology_allreduce(cluster, kElements, 5).verified ||
        !coll::topology_broadcast(cluster, kElements, 6).verified) {
      throw std::runtime_error("clean collective failed verification");
    }
    clean = cluster.engine().now();
  }

  apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal,
                           model::default_calibration(),
                           failover_cluster_options(topo, backend));
  cluster.tracer().enable(/*ring_capacity=*/0);  // retain kRouting records
  cluster.engine().set_time_budget(Time::seconds(5));
  const auto links = failover_cut_candidates(cluster.network());
  if (links.size() <= static_cast<std::size_t>(cuts)) {
    throw std::runtime_error("cut plan would strand the attach switch");
  }
  const Time first_cut = clean * 0.25;
  fault::FaultPlan plan;
  for (int c = 0; c < cuts; ++c) {
    plan.with_interior_link_failed(links[static_cast<std::size_t>(c)].first,
                                   links[static_cast<std::size_t>(c)].second,
                                   clean * (0.25 + 0.15 * c));
  }
  fault::FaultInjector injector(cluster, plan);

  const auto ar = coll::topology_allreduce(cluster, kElements, 5);
  const auto bc = coll::topology_broadcast(cluster, kElements, 6);
  if (!ar.verified || !bc.verified) {
    throw std::runtime_error("faulted collective failed verification");
  }
  const Time collectives_end = cluster.engine().now();

  // Post-failover goodput: one bulk message host 0 -> host p-1, timed
  // end to end (send through delivery) over the re-converged tables.
  const Bytes bulk = Bytes::kib(256);
  {
    sim::ProcessGroup group(cluster.engine());
    group.spawn(cluster.transfer(0, static_cast<int>(p) - 1, bulk, 77));
    group.spawn([](apps::SimCluster& c, std::size_t dst) -> sim::Process {
      (void)co_await c.inbox(dst).recv();
    }(cluster, p - 1));
    group.join();
  }
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
  for (const auto& s : cluster.engine().counters().snapshot()) {
    if (s.name == "net/reroute_requests") {
      reroute_requests = s.value;
    }
  }

  RunMetrics m;
  m.sim_time = cluster.engine().now();
  m.counters = {
      {"clean_ns", clean.as_nanos()},
      {"faulted_ns", collectives_end.as_nanos()},
      {"cut_ns", first_cut.as_nanos()},
      {"recovery_latency_ns", (reconverged - first_cut).as_nanos()},
      {"route_epochs",
       static_cast<std::int64_t>(cluster.network().route_epoch())},
      {"reroute_requests", reroute_requests},
      {"reroute_grants", static_cast<std::int64_t>(reroute_grants)},
      {"goodput_bytes_per_s",
       static_cast<std::int64_t>(static_cast<double>(bulk.count()) /
                                 bulk_time.as_seconds())},
  };
  capture_run(cluster, m);
  return m;
}

// ---------------------------------------------------------------------
// Chaos-recovery suite.
// ---------------------------------------------------------------------

apps::ClusterOptions chaos_cluster_options() {
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;
  opts.inic_max_retries = 16;
  opts.degraded_fallback = true;
  return opts;
}

constexpr std::size_t kChaosFftN = 256;
constexpr std::size_t kChaosSortKeys = std::size_t{1} << 16;

/// Clean-run durations, memoized process-wide (thread-safe static init)
/// so pooled points share one baseline measurement per app.
Time chaos_clean_total(bool fft) {
  static const Time fft_total = [] {
    apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                             model::default_calibration(),
                             chaos_cluster_options());
    return apps::run_parallel_fft(cluster, kChaosFftN, {}).total;
  }();
  static const Time sort_total = [] {
    apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                             model::default_calibration(),
                             chaos_cluster_options());
    apps::SortRunOptions opts;
    opts.verify = false;
    return apps::run_parallel_sort(cluster, kChaosSortKeys, opts).total;
  }();
  return fft ? fft_total : sort_total;
}

fault::FaultPlan chaos_plan_none(Time) { return {}; }

fault::FaultPlan chaos_plan_burst_loss(Time clean) {
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.25;
  ge.loss_bad = 0.5;
  fault::FaultPlan plan;
  plan.with_burst_loss(clean * 0.05, clean * 3.0, ge);
  return plan;
}

fault::FaultPlan chaos_plan_corruption(Time clean) {
  fault::FaultPlan plan;
  plan.with_corruption(clean * 0.05, clean * 3.0, 0.05);
  return plan;
}

fault::FaultPlan chaos_plan_link_flap(Time clean) {
  fault::FaultPlan plan;
  plan.with_link_down(1, clean * 0.30, clean * 0.05);
  return plan;
}

fault::FaultPlan chaos_plan_card_reset(Time clean) {
  fault::FaultPlan plan;
  plan.with_card_reset(2, clean * 0.10, clean * 0.25);
  return plan;
}

fault::FaultPlan chaos_plan_slow_port(Time clean) {
  fault::FaultPlan plan;
  plan.with_port_degrade(1, clean * 0.10, clean * 0.60, /*rate_factor=*/0.1);
  return plan;
}

fault::FaultPlan chaos_plan_everything(Time clean) {
  fault::FaultPlan plan = chaos_plan_burst_loss(clean);
  plan.with_corruption(clean * 0.05, clean * 3.0, 0.05)
      .with_link_down(1, clean * 0.40, clean * 0.05)
      .with_card_reset(2, clean * 0.10, clean * 0.25);
  return plan;
}

/// One chaos point: the scenario's fault plan against a verified FFT or
/// sort run on the hardened 4-node INIC cluster.
RunMetrics chaos_recovery_metrics(bool fft,
                                  fault::FaultPlan (*make_plan)(Time)) {
  const Time clean = chaos_clean_total(fft);
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(),
                           chaos_cluster_options());
  cluster.tracer().enable(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(30));
  fault::FaultInjector injector(cluster, make_plan(clean));
  Time total = Time::zero();
  bool verified = false;
  if (fft) {
    apps::FftRunOptions opts;
    opts.verify = true;
    const auto r = apps::run_parallel_fft(cluster, kChaosFftN, opts);
    total = r.total;
    verified = r.verified;
  } else {
    apps::SortRunOptions opts;
    opts.verify = true;
    const auto r = apps::run_parallel_sort(cluster, kChaosSortKeys, opts);
    total = r.total;
    verified = r.verified;
  }
  if (!verified) {
    throw std::runtime_error("faulted run failed verification");
  }
  std::int64_t retransmits = 0;
  std::int64_t crc_drops = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    retransmits += static_cast<std::int64_t>(cluster.card(i).retransmits());
    crc_drops += static_cast<std::int64_t>(cluster.card(i).crc_drops());
  }
  RunMetrics m;
  m.sim_time = total;
  m.counters = {
      {"clean_ns", clean.as_nanos()},
      {"faulted_ns", total.as_nanos()},
      {"fault_events", static_cast<std::int64_t>(injector.events_fired())},
      {"fallback_transfers",
       static_cast<std::int64_t>(cluster.fallback_transfers())},
      {"retransmits", retransmits},
      {"crc_drops", crc_drops},
      {"net_drops",
       static_cast<std::int64_t>(cluster.network().frames_dropped())},
  };
  capture_run(cluster, m);
  return m;
}

// ---------------------------------------------------------------------
// Serving suite (open-loop KV tail latency, apps/kv_app.hpp).
// ---------------------------------------------------------------------

constexpr std::size_t kServingClients = 4;
constexpr std::size_t kServingServers = 4;

apps::ClusterOptions serving_cluster_options(bool nic,
                                             const net::TopologyConfig& topo) {
  apps::ClusterOptions opts;
  opts.topology = topo;
  if (nic) {
    opts.inic_hw_retransmit = true;
    // Retry forever: under chaos the SLO question is "how *late* does a
    // response get", never "does it arrive" — a give-up would turn a
    // tail-latency point into a deadlock.
    opts.inic_max_retries = 0;
  }
  return opts;
}

/// The "30% loss" headline scenario: a Gilbert-Elliott channel that
/// spends 1/3 of its time (0.1 in, 0.2 out) in a bad state dropping 90%
/// of frames — ~30% average loss, in bursts rather than i.i.d., covering
/// the whole run.
fault::FaultPlan serving_chaos_plan() {
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.1;
  ge.p_bad_to_good = 0.2;
  ge.loss_bad = 0.9;
  fault::FaultPlan plan;
  plan.with_burst_loss(Time::micros(50), Time::seconds(2), ge);
  return plan;
}

RunMetrics serving_metrics(bool nic, net::TopologyConfig topo, bool chaos,
                           double rate_hz, std::size_t requests_per_client) {
  apps::SimCluster cluster(
      kServingClients + kServingServers,
      nic ? apps::Interconnect::kInicIdeal : apps::Interconnect::kGigabitTcp,
      model::default_calibration(), serving_cluster_options(nic, topo));
  cluster.tracer().enable(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(60));
  std::optional<fault::FaultInjector> injector;
  if (chaos) injector.emplace(cluster, serving_chaos_plan());
  apps::KvRunOptions opts;
  opts.clients = kServingClients;
  opts.servers = kServingServers;
  opts.requests_per_client = requests_per_client;
  opts.rate_hz = rate_hz;
  const auto r = apps::run_kv_serving(cluster, opts);
  if (!r.verified) {
    throw std::runtime_error("serving run failed verification");
  }
  RunMetrics m;
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
      {"requests", static_cast<std::int64_t>(r.requests)},
      {"responses", static_cast<std::int64_t>(r.responses)},
      {"p50_ns", static_cast<std::int64_t>(m.latency.p50_ns)},
      {"p99_ns", static_cast<std::int64_t>(m.latency.p99_ns)},
      {"p999_ns", static_cast<std::int64_t>(m.latency.p999_ns)},
      {"goodput_bytes_per_sec", r.goodput_bytes_per_sec},
      {"net_drops",
       static_cast<std::int64_t>(cluster.network().frames_dropped())},
      {"fault_events",
       injector ? static_cast<std::int64_t>(injector->events_fired()) : 0},
  };
  capture_run(cluster, m);
  return m;
}

}  // namespace

std::vector<RunPoint> serving_points(bool reduced) {
  struct Grid {
    const char* topo_label;  // "topology" param
    net::TopologyConfig config;
    double rate_hz;
    bool full_only;
  };
  const std::vector<Grid> grid = {
      {"star", net::TopologyConfig::star(), 20000.0, false},
      {"star", net::TopologyConfig::star(), 80000.0, true},
      {"fattree2", net::TopologyConfig::fat_tree(2), 20000.0, true},
  };
  const std::size_t requests_per_client = reduced ? 32 : 192;
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (const bool nic : {false, true}) {
      for (const bool chaos : {false, true}) {
        const net::TopologyConfig topo = g.config;
        const double rate = g.rate_hz;
        const std::string rate_str =
            std::to_string(static_cast<long long>(rate));
        points.push_back(RunPoint{
            "serving_tail",
            std::string(nic ? "nic" : "host") + "/" + g.topo_label +
                "/rate=" + rate_str + "/" + (chaos ? "loss30" : "clean"),
            {{"plane", nic ? "nic" : "host"},
             {"topology", g.topo_label},
             {"rate_hz", rate_str},
             {"chaos", chaos ? "loss30" : "clean"},
             {"clients", num(kServingClients)},
             {"servers", num(kServingServers)},
             {"requests_per_client", num(requests_per_client)}},
            [nic, topo, chaos, rate, requests_per_client] {
              return serving_metrics(nic, topo, chaos, rate,
                                     requests_per_client);
            }});
      }
    }
  }
  return points;
}

std::vector<RunPoint> failover_points(bool reduced) {
  struct Grid {
    const char* label;   // "topology" param
    net::TopologyConfig config;
    std::size_t p;
    int cuts;
    bool full_only;
  };
  const std::vector<Grid> grid = {
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, 1, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, 2, true},
      {"fattree3", net::TopologyConfig::fat_tree(3), 16, 1, true},
      {"torus2", net::TopologyConfig::torus(2), 8, 1, false},
      {"torus3", net::TopologyConfig::torus(3, 2, 2, 2), 8, 2, true},
  };
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      const net::TopologyConfig topo = g.config;
      const std::size_t p = g.p;
      const int cuts = g.cuts;
      points.push_back(RunPoint{
          "failover_recovery",
          std::string(apps::to_string(backend)) + "/" + g.label +
              "/P=" + num(p) + "/cuts=" + std::to_string(cuts),
          {{"collective_backend", apps::to_string(backend)},
           {"topology", g.label},
           {"P", num(p)},
           {"cuts", std::to_string(cuts)}},
          [backend, topo, p, cuts] {
            return failover_metrics(backend, topo, p, cuts);
          }});
    }
  }
  return points;
}

std::vector<RunPoint> chaos_recovery_points(bool reduced) {
  struct Scenario {
    const char* label;
    fault::FaultPlan (*plan)(Time);
    bool full_only;
  };
  const std::vector<Scenario> scenarios = {
      {"clean", chaos_plan_none, false},
      {"burst_loss", chaos_plan_burst_loss, false},
      {"corruption", chaos_plan_corruption, true},
      {"link_flap", chaos_plan_link_flap, true},
      {"card_reset", chaos_plan_card_reset, false},
      {"slow_port", chaos_plan_slow_port, true},
      {"everything", chaos_plan_everything, true},
  };
  std::vector<RunPoint> points;
  for (const auto& s : scenarios) {
    if (reduced && s.full_only) continue;
    for (const bool fft : {true, false}) {
      if (reduced && !fft) continue;  // reduced grid: FFT only
      auto plan = s.plan;
      points.push_back(RunPoint{
          "chaos_recovery",
          std::string(fft ? "fft" : "sort") + "/" + s.label,
          {{"app", fft ? "fft" : "sort"},
           {"scenario", s.label},
           {"P", "4"},
           {fft ? "n" : "keys",
            fft ? num(kChaosFftN) : num(kChaosSortKeys)}},
          [fft, plan] { return chaos_recovery_metrics(fft, plan); }});
    }
  }
  return points;
}

std::vector<RunPoint> collective_points(bool reduced) {
  struct Grid {
    const char* label;   // "topology" param
    net::TopologyConfig config;
    std::size_t p;
    bool full_only;
  };
  const std::vector<Grid> grid = {
      {"star", net::TopologyConfig::star(), 8, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 16, false},
      {"torus2", net::TopologyConfig::torus(2), 16, false},
      {"star", net::TopologyConfig::star(), 16, true},
      {"fattree2", net::TopologyConfig::fat_tree(2), 64, true},
      {"fattree3", net::TopologyConfig::fat_tree(3), 16, true},
      {"torus3", net::TopologyConfig::torus(3), 27, true},
  };
  constexpr std::size_t kElements = 256;
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      const net::TopologyConfig topo = g.config;
      const std::size_t p = g.p;
      points.push_back(RunPoint{
          "collectives",
          std::string(apps::to_string(backend)) + "/" + g.label +
              "/P=" + num(p),
          {{"collective_backend", apps::to_string(backend)},
           {"topology", g.label},
           {"P", num(p)},
           {"elements", num(kElements)}},
          [backend, topo, p] {
            return collective_metrics(backend, topo, p, kElements);
          }});
    }
  }
  return points;
}

std::vector<RunPoint> topology_scaling_points(bool reduced) {
  struct Grid {
    const char* label;   // point-name prefix and "topology" param
    net::TopologyConfig config;
    std::size_t p;
    bool full_only;
  };
  const std::vector<Grid> grid = {
      {"star", net::TopologyConfig::star(), 64, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 64, false},
      {"fattree2", net::TopologyConfig::fat_tree(2), 256, false},
      {"torus2", net::TopologyConfig::torus(2), 64, false},
      {"torus3", net::TopologyConfig::torus(3), 256, false},
      {"fattree3", net::TopologyConfig::fat_tree(3), 1024, true},
      {"torus3", net::TopologyConfig::torus(3), 1024, true},
  };
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    const net::TopologyConfig topo = g.config;
    const std::size_t p = g.p;
    points.push_back(RunPoint{
        "fig_scaling_topology",
        std::string(g.label) + "/P=" + num(p),
        {{"topology", g.label},
         {"shape", net::describe_topology(topo, p)},
         {"P", num(p)}},
        [topo, p] { return topology_metrics(topo, p); }});
  }
  return points;
}

namespace {

/// Scaling fields of one engine-scaling point.  The shape's threads=1
/// point IS the baseline: it records its own wall clock here, and every
/// threads>1 point of the shape divides against it, so no point's timed
/// body ever runs a second simulation.  Points are listed threads=1
/// first, so a serial sweep always has the baseline; a pooled sweep may
/// start a threads>1 point before its shape's baseline exists, and that
/// point reports no speedup (0 = n/a) — its concurrent neighbours would
/// skew the ratio anyway.  Wall-clock only: never feeds a digest or
/// counter.
void set_scaling_fields(RunMetrics& m, const std::string& shape,
                        std::size_t threads, std::uint64_t wall_ns) {
  static std::mutex mu;
  static std::map<std::string, std::uint64_t> baseline_ns;
  m.threads = threads;
  std::lock_guard<std::mutex> lock(mu);
  if (threads == 1) {
    baseline_ns[shape] = wall_ns;
    return;
  }
  const auto it = baseline_ns.find(shape);
  if (it == baseline_ns.end() || it->second == 0 || wall_ns == 0) return;
  m.speedup = static_cast<double>(it->second) / static_cast<double>(wall_ns);
  m.scaling_efficiency = m.speedup / static_cast<double>(threads);
}

RunMetrics engine_scaling_metrics(const std::string& label,
                                  const net::LpWorkloadConfig& cfg,
                                  std::size_t threads) {
  const auto t0 = std::chrono::steady_clock::now();
  const net::LpWorkloadResult r = net::run_lp_workload(cfg, threads);
  const auto wall = std::chrono::steady_clock::now() - t0;
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
  RunMetrics m;
  m.sim_time = r.sim_time;
  m.digest = r.digest;
  m.trace_records = r.trace_records;
  m.events = r.events;
  m.shards.reserve(r.shards.size());
  for (const auto& s : r.shards) {
    m.shards.push_back(ShardSummary{s.events, s.wall_ns});
  }
  set_scaling_fields(m, label, threads, wall_ns);
  // Everything here is a pure function of cfg — the serial-vs-pooled
  // comparison in tests/runner_test.cpp checks these bit-for-bit.
  m.counters = {
      {"delivered", static_cast<std::int64_t>(r.delivered)},
      {"hops", static_cast<std::int64_t>(r.hops)},
      {"checksum", static_cast<std::int64_t>(r.checksum)},
      {"windows", static_cast<std::int64_t>(r.windows)},
      {"cross_posts", static_cast<std::int64_t>(r.cross_posts)},
      {"lp_count", static_cast<std::int64_t>(r.lp_count)},
  };
  return m;
}


// ---------------------------------------------------------------------
// SimCluster engine scaling: device models on per-switch LPs
// ---------------------------------------------------------------------

sim::Process cluster_scaling_sender(apps::SimCluster& cluster, int src,
                                    int dst, int rounds, Bytes size) {
  for (int r = 0; r < rounds; ++r) {
    co_await cluster.transfer(src, dst, size, static_cast<std::uint64_t>(r));
  }
}

sim::Process cluster_scaling_receiver(apps::SimCluster& cluster, int node,
                                      int rounds) {
  for (int r = 0; r < rounds; ++r) {
    (void)co_await cluster.inbox(static_cast<std::size_t>(node)).recv();
  }
}

RunMetrics cluster_scaling_metrics(std::size_t hosts, std::size_t threads) {
  const auto t0 = std::chrono::steady_clock::now();
  const ClusterScalingRun r = run_cluster_scaling_point(hosts, threads);
  const auto wall = std::chrono::steady_clock::now() - t0;
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
  RunMetrics m;
  m.sim_time = r.sim_time;
  m.digest = r.digest;
  m.trace_records = r.trace_records;
  m.events = r.events;
  m.shards = r.shards;
  set_scaling_fields(m, "cluster_fattree3/P=" + num(hosts), threads, wall_ns);
  m.counters = {
      {"lp_count", static_cast<std::int64_t>(r.lp_count)},
      {"windows", static_cast<std::int64_t>(r.windows)},
      {"cross_posts", static_cast<std::int64_t>(r.cross_posts)},
  };
  return m;
}

}  // namespace


ClusterScalingRun run_cluster_scaling_point(std::size_t hosts,
                                            std::size_t threads) {
  apps::ClusterOptions copts;
  copts.topology = net::TopologyConfig::fat_tree(3);
  copts.engine_threads = threads;
  apps::SimCluster cluster(hosts, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.enable_tracing(/*ring_capacity=*/64);
  sim::ProcessGroup group =
      cluster.parallel() ? sim::ProcessGroup(*cluster.parallel())
                         : sim::ProcessGroup(cluster.engine());
  constexpr int kRounds = 4;
  const Bytes kSize = Bytes::kib(64);
  for (std::size_t i = 0; i < hosts; ++i) {
    const int src = static_cast<int>(i);
    const int dst = static_cast<int>((i + 1) % hosts);
    group.spawn_on(cluster.node_lp(i),
                   cluster_scaling_sender(cluster, src, dst, kRounds, kSize));
    group.spawn_on(cluster.node_lp(static_cast<std::size_t>(dst)),
                   cluster_scaling_receiver(cluster, dst, kRounds));
  }
  ClusterScalingRun out;
  out.sim_time = cluster.run();
  group.join();
  out.digest = cluster.digest();
  out.trace_records = cluster.trace_records();
  out.events = cluster.events_executed();
  if (const net::LpPartition* part = cluster.partition()) {
    out.lp_count = part->lp_count;
  }
  if (sim::ParallelEngine* pe = cluster.parallel()) {
    out.windows = pe->windows();
    out.cross_posts = pe->cross_posts();
    out.shards.reserve(pe->shard_stats().size());
    for (const auto& sh : pe->shard_stats()) {
      out.shards.push_back(ShardSummary{sh.events, sh.wall_ns});
    }
  }
  return out;
}

net::LpWorkloadConfig engine_scaling_floor_config() {
  // k = 16 fat tree: 1024 hosts over 320 switch LPs, with per-hop work
  // heavy enough that window parallelism (not barrier overhead)
  // dominates — the shape the >= 1.6x @ 4 threads CI floor is pinned on.
  // The 2 us interior latency (= lookahead) over a 100 us injection
  // spread keeps the run around ~60 fat windows: several milliseconds
  // of spin work per barrier, so the pool amortizes its wakeups even on
  // modest CI hosts.
  net::LpWorkloadConfig cfg;
  cfg.topology = net::TopologyConfig::fat_tree(3);
  cfg.hosts = 1024;
  cfg.frames_per_host = 32;
  cfg.switch_work = 1024;
  cfg.link_latency = Time::micros(2);
  cfg.inject_spread = Time::micros(100);
  return cfg;
}

std::vector<RunPoint> engine_scaling_points(bool reduced) {
  struct Grid {
    const char* label;   // "topology" param and baseline-memo key
    net::LpWorkloadConfig cfg;
    bool full_only;
  };
  // The full grid's fat-tree point carries the CI speedup floor; the
  // reduced point keeps the suite in the serial-vs-pooled determinism
  // gate without dominating its wall clock.
  net::LpWorkloadConfig small;
  small.topology = net::TopologyConfig::fat_tree(2);
  small.hosts = 64;
  small.frames_per_host = 16;
  small.switch_work = 96;
  const std::vector<Grid> grid = {
      {"fattree2", small, false},
      {"fattree3", engine_scaling_floor_config(), true},
  };
  std::vector<RunPoint> points;
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    const net::LpWorkloadConfig& cfg = g.cfg;
    const std::string label = std::string(g.label) + "/P=" + num(cfg.hosts);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      points.push_back(RunPoint{
          "engine_scaling",
          label + "/threads=" + num(threads),
          {{"topology", g.label},
           {"P", num(cfg.hosts)},
           {"frames_per_host", num(cfg.frames_per_host)},
           {"switch_work", num(cfg.switch_work)},
           {"threads", num(threads)}},
          [label, cfg, threads] {
            return engine_scaling_metrics(label, cfg, threads);
          }});
    }
  }
  // SimCluster points: the full device models (cards, DMA, switch
  // FIFOs) sharded across per-switch LPs — the migration the synthetic
  // LP workload above cannot see.  The full grid's 1024-host point is
  // the shape bench/engine_scaling --check-floor re-measures.  Host
  // counts must be k^3/4 for an even k (fat_tree(3)): 16 reduced,
  // 1024 full.
  const std::size_t cluster_hosts =
      reduced ? std::size_t{16} : kClusterScalingFloorHosts;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    points.push_back(RunPoint{
        "engine_scaling",
        "cluster_fattree3/P=" + num(cluster_hosts) +
            "/threads=" + num(threads),
        {{"topology", "cluster_fattree3"},
         {"P", num(cluster_hosts)},
         {"threads", num(threads)}},
        [cluster_hosts, threads] {
          return cluster_scaling_metrics(cluster_hosts, threads);
        }});
  }
  return points;
}

std::vector<RunPoint> figure_sweep_points(bool reduced) {
  std::vector<RunPoint> points;

  const std::vector<std::size_t> procs =
      reduced ? std::vector<std::size_t>{1, 2, 4}
              : std::vector<std::size_t>{1, 2, 4, 8, 16};
  const std::vector<std::size_t> fft_sizes =
      reduced ? std::vector<std::size_t>{64}
              : std::vector<std::size_t>{256, 512};
  const std::size_t sort_keys = reduced ? (std::size_t{1} << 16)
                                        : (std::size_t{1} << 25);
  const std::size_t ablation_keys = reduced ? (std::size_t{1} << 16)
                                            : (std::size_t{1} << 24);
  const std::size_t ablation_p = reduced ? 4 : 8;

  // Figure 8(a): FFT speedup across the three interconnect families.
  for (auto ic : {apps::Interconnect::kInicPrototype,
                  apps::Interconnect::kFastEthernetTcp,
                  apps::Interconnect::kGigabitTcp}) {
    for (std::size_t n : fft_sizes) {
      for (std::size_t p : procs) {
        points.push_back(RunPoint{
            "fig8a_fft_sim",
            std::string(slug(ic)) + "/n=" + num(n) + "/P=" + num(p),
            {{"interconnect", slug(ic)}, {"n", num(n)}, {"P", num(p)}},
            [ic, n, p] { return fft_sim_metrics(ic, n, p); }});
      }
    }
  }

  // Figure 8(b): sort speedup, prototype vs GigE vs ideal INIC.
  for (auto ic : {apps::Interconnect::kInicPrototype,
                  apps::Interconnect::kGigabitTcp,
                  apps::Interconnect::kInicIdeal}) {
    for (std::size_t p : procs) {
      points.push_back(RunPoint{
          "fig8b_sort_sim",
          std::string(slug(ic)) + "/keys=" + num(sort_keys) + "/P=" + num(p),
          {{"interconnect", slug(ic)},
           {"keys", num(sort_keys)},
           {"P", num(p)}},
          [ic, sort_keys, p] { return sort_sim_metrics(ic, sort_keys, p); }});
    }
  }

  // Figure 4(b): transpose decomposition (GigE, largest FFT size).
  const std::size_t decomp_n = fft_sizes.back();
  for (std::size_t p : procs) {
    if (decomp_n % p != 0) continue;
    points.push_back(RunPoint{
        "fig4b_transpose",
        "gige/n=" + num(decomp_n) + "/P=" + num(p),
        {{"interconnect", "gige"}, {"n", num(decomp_n)}, {"P", num(p)}},
        [decomp_n, p] { return transpose_metrics(decomp_n, p); }});
  }

  // Figure 5(a): sort component times (GigE).
  for (std::size_t p : procs) {
    points.push_back(RunPoint{
        "fig5a_sort_components",
        "gige/keys=" + num(sort_keys) + "/P=" + num(p),
        {{"interconnect", "gige"}, {"keys", num(sort_keys)}, {"P", num(p)}},
        [sort_keys, p] {
          return sort_sim_metrics(apps::Interconnect::kGigabitTcp, sort_keys,
                                  p);
        }});
  }

  // Ablation: INIC packet size (Section 4.2 — expected nearly flat).
  const std::vector<std::uint64_t> packets =
      reduced ? std::vector<std::uint64_t>{256, 1024, 4096}
              : std::vector<std::uint64_t>{256, 512, 1024, 2048, 4096};
  for (std::uint64_t packet : packets) {
    model::Calibration cal = model::default_calibration();
    cal.inic_packet = Bytes(packet);
    points.push_back(RunPoint{
        "ablation_packet_size",
        "packet=" + std::to_string(packet) + "/P=" + num(ablation_p),
        {{"packet_bytes", std::to_string(packet)},
         {"keys", num(ablation_keys)},
         {"P", num(ablation_p)}},
        [cal, ablation_keys, ablation_p] {
          return sort_ablation_metrics(cal, ablation_keys, ablation_p);
        }});
  }

  // Ablation: card-to-host DMA threshold (Equation 15's 64 KB knee).
  const std::vector<std::uint64_t> thresholds_kib =
      reduced ? std::vector<std::uint64_t>{16, 64, 256}
              : std::vector<std::uint64_t>{4, 16, 32, 64, 128, 256};
  for (std::uint64_t kib : thresholds_kib) {
    model::Calibration cal = model::default_calibration();
    cal.dma_efficiency_threshold = Bytes::kib(kib);
    points.push_back(RunPoint{
        "ablation_dma_threshold",
        "thr=" + std::to_string(kib) + "KiB/P=" + num(ablation_p),
        {{"threshold_kib", std::to_string(kib)},
         {"keys", num(ablation_keys)},
         {"P", num(ablation_p)}},
        [cal, ablation_keys, ablation_p] {
          return sort_ablation_metrics(cal, ablation_keys, ablation_p);
        }});
  }

  // Topology scaling: collectives over multi-hop fabrics (P up to 1024
  // in the full grid; reduced keeps P <= 256 so CI and the TSan sweep
  // stay fast).
  for (auto& point : topology_scaling_points(reduced)) {
    points.push_back(std::move(point));
  }

  // Collectives: host/TCP vs NIC-resident backend over the fabric grid.
  for (auto& point : collective_points(reduced)) {
    points.push_back(std::move(point));
  }

  // Failover: permanent link cuts with adaptive routing (recovery
  // latency and post-failover goodput per backend).
  for (auto& point : failover_points(reduced)) {
    points.push_back(std::move(point));
  }

  // Chaos: scripted fault storms against verified FFT/sort runs.
  for (auto& point : chaos_recovery_points(reduced)) {
    points.push_back(std::move(point));
  }

  // Serving: open-loop KV tail latency, host vs NIC plane, clean vs
  // 30%-loss chaos.
  for (auto& point : serving_points(reduced)) {
    points.push_back(std::move(point));
  }

  // Parallel engine: LP-partitioned fabric traffic at 1/2/4 worker
  // threads (digest thread-count independence + scaling trajectory).
  for (auto& point : engine_scaling_points(reduced)) {
    points.push_back(std::move(point));
  }

  return points;
}

}  // namespace acc::runner
