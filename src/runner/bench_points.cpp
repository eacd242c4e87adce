#include "runner/bench_points.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/kv_app.hpp"
#include "apps/sort_app.hpp"
#include "collectives/collectives.hpp"
#include "dtype/datatype.hpp"
#include "fault/fault.hpp"
#include "hw/dma.hpp"
#include "hw/node.hpp"
#include "inic/card.hpp"
#include "model/calibration.hpp"
#include "model/fft_model.hpp"
#include "model/sort_model.hpp"
#include "net/lp_workload.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "runner/bench_json.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"

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

/// A ratio as a fixed-point counter (parts per million), so it rides the
/// serial-vs-pooled counter comparison like every other column.
std::int64_t ppm(double ratio) { return std::llround(ratio * 1e6); }

/// Fills the digest/event fields every traced point reports.
void capture_run(apps::SimCluster& cluster, RunMetrics& m) {
  m.digest = cluster.digest();
  m.trace_records = cluster.trace_records();
  m.events = cluster.events_executed();
}

RunMetrics fft_sim_metrics(apps::Interconnect ic, std::size_t n,
                           std::size_t p) {
  const Time serial =
      apps::run_serial_fft(model::default_calibration(), n).total;
  apps::SimCluster cluster(p, ic);
  cluster.enable_tracing(/*ring_capacity=*/256);
  apps::FftRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_fft(cluster, n, opts);
  RunMetrics m;
  m.sim_time = r.total;
  m.speedup = serial / r.total;
  m.counters = {
      {"compute_ns", r.compute.as_nanos()},
      {"transpose_ns", r.transpose.as_nanos()},
      {"model_speedup_ppm",
       ppm(model::FftAnalyticModel().inic_speedup(n, p))}};
  capture_run(cluster, m);
  return m;
}

RunMetrics sort_sim_metrics(apps::Interconnect ic, std::size_t keys,
                            std::size_t p) {
  const Time serial =
      apps::run_serial_sort(model::default_calibration(), keys).total;
  apps::SimCluster cluster(p, ic);
  cluster.enable_tracing(/*ring_capacity=*/256);
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

/// Sort run under a modified calibration or key distribution (ablations).
/// No speedup — the serial baseline of a non-default calibration is not
/// what the ablation compares against (each sweep is self-relative).
RunMetrics sort_ablation_metrics(const model::Calibration& cal,
                                 std::size_t keys, std::size_t p,
                                 apps::SortRunOptions opts = {}) {
  apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal, cal);
  cluster.enable_tracing(/*ring_capacity=*/256);
  opts.verify = false;
  const auto r = apps::run_parallel_sort(cluster, keys, opts);
  RunMetrics m;
  m.sim_time = r.total;
  m.counters = {{"redistribution_ns", r.redistribution.as_nanos()}};
  capture_run(cluster, m);
  return m;
}

/// Figure 5(a): the GigE sort's phase times plus communication (total
/// minus the three compute phases; none at P = 1) and the Equation 12
/// partition size.
RunMetrics sort_components_metrics(std::size_t keys, std::size_t p) {
  RunMetrics m = sort_sim_metrics(apps::Interconnect::kGigabitTcp, keys, p);
  const std::int64_t comm =
      p == 1 ? 0
             : m.sim_time.as_nanos() - m.counter("count_sort_ns") -
                   m.counter("bucket_phase1_ns") -
                   m.counter("bucket_phase2_ns");
  const Bytes partition = model::SortAnalyticModel().partition_size(keys, p);
  m.counters.emplace_back("comm_ns", comm);
  m.counters.emplace_back("partition_bytes",
                          static_cast<std::int64_t>(partition.count()));
  return m;
}

/// Equation 15's trade-off at one card-to-host DMA threshold: the sort
/// run, the DMA efficiency of a threshold-sized transfer, and the
/// guaranteed-accumulation delay T_dfg at N = 256 buckets.
RunMetrics dma_threshold_metrics(const model::Calibration& cal,
                                 std::size_t keys, std::size_t p) {
  RunMetrics m = sort_ablation_metrics(cal, keys, p);
  sim::Engine eng;
  sim::FifoResource bus(eng, cal.host_pci_bus);
  const hw::DmaEngine dma(bus, {.setup = cal.dma_setup,
                                .max_burst = cal.dma_efficiency_threshold});
  const double efficiency = dma.efficiency(cal.dma_efficiency_threshold);
  m.counters.emplace_back("dma_efficiency_ppm", ppm(efficiency));
  m.counters.emplace_back(
      "accum_delay_ns", model::SortAnalyticModel(cal).t_dfg(256).as_nanos());
  return m;
}

RunMetrics transpose_metrics(std::size_t n, std::size_t p) {
  model::FftAnalyticModel fft_model;
  const Time host_compute = fft_model.host_transpose_compute_time(n, p);
  const Time inic = fft_model.inic_transpose_time(n, p);
  const Bytes partition = fft_model.partition_size(n, p);
  apps::SimCluster cluster(p, apps::Interconnect::kGigabitTcp);
  cluster.enable_tracing(/*ring_capacity=*/256);
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

// ---------------------------------------------------------------------
// Ablation and extension suites.  A point is one table row; rows that
// compare several simulations record each run's time as a counter and
// take sim_time and digest from the INIC run (the sampled-splitter run
// for key distribution, the prototype card for the accelerator).
// ---------------------------------------------------------------------

/// Section 4.1's interrupt-mitigation trade-off: a GigE FFT under one
/// coalescing policy, with node 0's interrupt count and CPU time.
RunMetrics coalescing_metrics(std::size_t frames, Time timeout, std::size_t n,
                              std::size_t p) {
  model::Calibration cal = model::default_calibration();
  cal.interrupt_coalesce_frames = frames;
  cal.interrupt_coalesce_timeout = timeout;
  apps::SimCluster cluster(p, apps::Interconnect::kGigabitTcp, cal);
  cluster.enable_tracing(/*ring_capacity=*/256);
  apps::FftRunOptions opts;
  opts.verify = false;
  const auto r = apps::run_parallel_fft(cluster, n, opts);
  const hw::Cpu& cpu = cluster.node(0).cpu();
  RunMetrics m;
  m.sim_time = r.total;
  m.counters = {
      {"fft_ns", r.total.as_nanos()},
      {"transpose_ns", r.transpose.as_nanos()},
      {"interrupts", static_cast<std::int64_t>(cpu.interrupts_serviced())},
      {"interrupt_cpu_ns", cpu.total_interrupt_time().as_nanos()}};
  capture_run(cluster, m);
  return m;
}

/// Section 3.2's sampling pre-sort: the INIC sort under one key
/// distribution with top-bit buckets, then with sampled splitters.
RunMetrics key_distribution_metrics(apps::KeyDistribution dist, double sigma,
                                    std::size_t keys, std::size_t p) {
  const model::Calibration& cal = model::default_calibration();
  apps::SortRunOptions opts;
  opts.distribution = dist;
  opts.gaussian_sigma = sigma;
  const Time plain = sort_ablation_metrics(cal, keys, p, opts).sim_time;
  opts.sampling_splitters = true;
  RunMetrics m = sort_ablation_metrics(cal, keys, p, opts);
  m.counters = {{"plain_ns", plain.as_nanos()},
                {"sampled_ns", m.sim_time.as_nanos()},
                {"sampling_win_ppm", ppm(plain / m.sim_time)}};
  return m;
}

/// Node 0's side of a two-node run: its host-side work (`cpu` of CPU
/// time, then `dma_crossings` DMA transfers of `size` over its PCI bus),
/// then `messages` messages of `size` to node 1.
sim::Process two_node_sender(apps::SimCluster& cluster, Time cpu,
                             int dma_crossings, Bytes size, int messages) {
  if (cpu > Time::zero()) co_await cluster.node(0).cpu().compute(cpu);
  for (int i = 0; i < dma_crossings; ++i) {
    co_await cluster.node(0).dma().transfer(size);
  }
  for (int m = 0; m < messages; ++m) {
    co_await cluster.transfer(0, 1, size, static_cast<std::uint64_t>(m));
  }
}

sim::Process two_node_receiver(apps::SimCluster& cluster, int messages,
                               std::vector<Time>& deliveries) {
  for (int m = 0; m < messages; ++m) {
    deliveries.push_back((co_await cluster.inbox(1).recv()).delivered_at);
  }
}

/// A two-node run's metrics (sim_time: the last process's finish) and
/// its delivery instants.
struct TwoNodeRun {
  RunMetrics metrics;
  std::vector<Time> deliveries;
};

/// The netpipe, derived-datatype and RC-placement workload: node 0 does
/// its host-side work, then sends `messages` messages of `size` through
/// SimCluster::transfer, and node 1 receives them from inbox(1).
/// `cpu_work` maps node 0's memory hierarchy to its CPU time (null: none).
TwoNodeRun two_node_run(
    apps::Interconnect ic, Bytes size, int messages,
    const std::function<Time(const hw::MemoryHierarchy&)>& cpu_work = {},
    int dma_crossings = 0) {
  apps::SimCluster cluster(2, ic);
  cluster.enable_tracing(/*ring_capacity=*/256);
  const Time cpu = cpu_work ? cpu_work(cluster.node(0).cpu().memory())
                            : Time::zero();
  TwoNodeRun run;
  sim::ProcessGroup group(cluster.engine());
  group.spawn(two_node_sender(cluster, cpu, dma_crossings, size, messages));
  group.spawn(two_node_receiver(cluster, messages, run.deliveries));
  run.metrics.sim_time = group.join();
  capture_run(cluster, run.metrics);
  return run;
}

/// Section 2's protocol-processor mode: first-message one-way latency
/// and the goodput of an 8-message stream, TCP/GigE vs INIC.
RunMetrics netpipe_metrics(Bytes size) {
  constexpr int kMessages = 8;
  const auto goodput = [&](const TwoNodeRun& r) {
    return std::llround(static_cast<double>(size.count()) * kMessages /
                        r.deliveries.back().as_seconds());
  };
  const TwoNodeRun tcp =
      two_node_run(apps::Interconnect::kGigabitTcp, size, kMessages);
  TwoNodeRun inic =
      two_node_run(apps::Interconnect::kInicIdeal, size, kMessages);
  RunMetrics m = std::move(inic.metrics);
  m.counters = {{"tcp_ns", tcp.metrics.sim_time.as_nanos()},
                {"tcp_latency_ns", tcp.deliveries.front().as_nanos()},
                {"inic_latency_ns", inic.deliveries.front().as_nanos()},
                {"tcp_goodput_bytes_per_s", goodput(tcp)},
                {"inic_goodput_bytes_per_s", goodput(inic)}};
  return m;
}

/// Section 8's derived datatypes: one column block of an n x n
/// complex-double matrix (n blocks of n/8 columns), packed on the host
/// CPU and sent over TCP vs gathered in-stream by the INIC.
RunMetrics derived_datatype_metrics(std::size_t n) {
  const auto type = dtype::Datatype::vector(n, n / 8 * 16, n * 16);
  const Time pack = dtype::host_pack_time(hw::MemoryHierarchy(), type);
  const Time host =
      two_node_run(apps::Interconnect::kGigabitTcp, type.packed_size(), 1,
                   [&](const hw::MemoryHierarchy& mem) {
                     return dtype::host_pack_time(mem, type);
                   })
          .metrics.sim_time;
  RunMetrics m =
      two_node_run(apps::Interconnect::kInicIdeal, type.packed_size(), 1)
          .metrics;
  m.counters = {
      {"payload_bytes", static_cast<std::int64_t>(type.packed_size().count())},
      {"blocks", static_cast<std::int64_t>(type.block_count())},
      {"pack_ns", pack.as_nanos()},
      {"host_ns", host.as_nanos()},
      {"inic_ns", m.sim_time.as_nanos()},
      {"inic_win_ppm", ppm(host / m.sim_time)}};
  return m;
}

/// Section 7's RC placement for a transform-and-transmit stream: the
/// kernel on the host CPU (a memory-bound pass in and out), on a PCI RC
/// card (two extra crossings of the shared PCI bus; the FPGA keeps up
/// with the bus), or in the INIC's datapath at stream rate.
RunMetrics rc_placement_metrics(Bytes size) {
  const Time host =
      two_node_run(apps::Interconnect::kGigabitTcp, size, 1,
                   [size](const hw::MemoryHierarchy& mem) {
                     return mem.pass_time(size, size) * 2.0;
                   })
          .metrics.sim_time;
  const Time pci_rc = two_node_run(apps::Interconnect::kGigabitTcp, size, 1,
                                   {}, /*dma_crossings=*/2)
                          .metrics.sim_time;
  RunMetrics m = two_node_run(apps::Interconnect::kInicIdeal, size, 1).metrics;
  m.counters = {{"host_ns", host.as_nanos()},
                {"pci_rc_ns", pci_rc.as_nanos()},
                {"inic_ns", m.sim_time.as_nanos()},
                {"inic_win_ppm", ppm(pci_rc / m.sim_time)}};
  return m;
}

/// An 8 MiB card-to-card stream while `offload_rounds` 8 MiB FPGA
/// offloads run on the sending card; sim_time is the stream's delivery.
/// A standalone engine and two bare cards: SimCluster's calibrated card
/// config would change the numbers.
RunMetrics accelerator_stream(const inic::InicConfig& cfg,
                              int offload_rounds) {
  sim::Engine eng;
  eng.tracer().enable(/*ring_capacity=*/256);
  net::Fabric fabric(eng, 2);
  hw::Node a(eng, 0), b(eng, 1);
  inic::InicCard card_a(a, fabric, cfg), card_b(b, fabric, cfg);
  RunMetrics m;
  sim::ProcessGroup group(eng);
  group.spawn([](inic::InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::mib(8), 0, std::any{});
  }(card_a));
  group.spawn([](inic::InicCard& c, sim::Engine& e, Time& out) -> sim::Process {
    (void)co_await c.card_inbox().recv();
    out = e.now();
  }(card_b, eng, m.sim_time));
  for (int i = 0; i < offload_rounds; ++i) {
    group.spawn([](inic::InicCard& c) -> sim::Process {
      co_await c.compute_offload(Bytes::mib(8),
                                 Bandwidth::mib_per_sec(1000.0));
    }(card_a));
  }
  group.join();
  m.digest = eng.tracer().digest();
  m.trace_records = eng.tracer().records_emitted();
  m.events = eng.events_executed();
  return m;
}

/// Section 2's compute-accelerator mode: the stream's slowdown under
/// `offload_rounds` offloads, ideal card (separate host-memory path) vs
/// ACEII prototype (one shared bus).
RunMetrics compute_accelerator_metrics(int offload_rounds) {
  const auto ideal = inic::InicConfig::ideal();
  const auto proto = inic::InicConfig::prototype_aceii();
  const Time ideal_clean = accelerator_stream(ideal, 0).sim_time;
  const Time proto_clean = accelerator_stream(proto, 0).sim_time;
  const Time ideal_loaded = accelerator_stream(ideal, offload_rounds).sim_time;
  RunMetrics m = accelerator_stream(proto, offload_rounds);
  m.counters = {{"ideal_ns", ideal_loaded.as_nanos()},
                {"ideal_slowdown_ppm", ppm(ideal_loaded / ideal_clean)},
                {"prototype_ns", m.sim_time.as_nanos()},
                {"prototype_slowdown_ppm", ppm(m.sim_time / proto_clean)}};
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
  cluster.enable_tracing(/*ring_capacity=*/256);
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
  cluster.enable_tracing(/*ring_capacity=*/0);  // retain all records
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
  cluster.enable_tracing(/*ring_capacity=*/0);  // retain kRouting records
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
    sim::ProcessGroup group(*cluster.parallel());
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
  for (const auto& s : cluster.counters_snapshot()) {
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
  cluster.enable_tracing(/*ring_capacity=*/256);
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
  cluster.enable_tracing(/*ring_capacity=*/256);
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

// ---------------------------------------------------------------------
// Engine-scaling suite.
// ---------------------------------------------------------------------

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

/// One untimed LP-workload run (engine_scaling_metrics times it).
RunMetrics run_lp_scaling_point(const net::LpWorkloadConfig& cfg,
                                std::size_t threads) {
  const net::LpWorkloadResult r = net::run_lp_workload(cfg, threads);
  RunMetrics m;
  m.sim_time = r.sim_time;
  m.digest = r.digest;
  m.trace_records = r.trace_records;
  m.events = r.events;
  m.shards.reserve(r.shards.size());
  for (const auto& s : r.shards) {
    m.shards.push_back(ShardSummary{s.events, s.wall_ns});
  }
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

RunMetrics engine_scaling_metrics(const std::string& label,
                                  const net::LpWorkloadConfig& cfg,
                                  std::size_t threads) {
  const auto t0 = std::chrono::steady_clock::now();
  RunMetrics m = run_lp_scaling_point(cfg, threads);
  const auto wall = std::chrono::steady_clock::now() - t0;
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
  set_scaling_fields(m, label, threads, wall_ns);
  return m;
}

/// The speedup-floor shape: the full engine_scaling grid's 1024-host
/// fat-tree workload.  check_speedup_floor() re-measures exactly this
/// config, so the gate and the grid cannot drift apart.
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

// SimCluster engine scaling: device models on per-switch LPs.

/// Hosts of the full grid's SimCluster scaling shape, the SimCluster
/// half of the speedup floor.
constexpr std::size_t kClusterScalingFloorHosts = 1024;

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

/// One SimCluster engine-scaling run: a neighbour-ring INIC transfer
/// workload on a fat-tree cluster with the full device models (cards,
/// DMA, switch FIFOs) sharded across per-switch LPs when threads >= 2.
/// Digest semantics follow docs/TRACING.md: threads <= 1 runs the one-LP
/// partition and reports the historical digest; any threads >= 2 report
/// one common per-switch digest (per-lane frame ids), so floor checks
/// compare wall clock 1-vs-4 but digests only among per-switch runs.
/// Untimed: the caller owns the wall clock.
RunMetrics run_cluster_scaling_point(std::size_t hosts,
                                            std::size_t threads) {
  apps::ClusterOptions copts;
  copts.topology = net::TopologyConfig::fat_tree(3);
  copts.engine_threads = threads;
  apps::SimCluster cluster(hosts, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.enable_tracing(/*ring_capacity=*/64);
  sim::ProcessGroup group(*cluster.parallel());
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
  RunMetrics m;
  m.sim_time = cluster.run();
  group.join();
  m.digest = cluster.digest();
  m.trace_records = cluster.trace_records();
  m.events = cluster.events_executed();
  const sim::ParallelEngine& pe = *cluster.parallel();
  for (const auto& sh : pe.shard_stats()) {
    m.shards.push_back(ShardSummary{sh.events, sh.wall_ns});
  }
  m.counters = {
      {"lp_count", static_cast<std::int64_t>(pe.lp_count())},
      {"windows", static_cast<std::int64_t>(pe.windows())},
      {"cross_posts", static_cast<std::int64_t>(pe.cross_posts())},
  };
  return m;
}

RunMetrics cluster_scaling_metrics(std::size_t hosts, std::size_t threads) {
  const auto t0 = std::chrono::steady_clock::now();
  RunMetrics m = run_cluster_scaling_point(hosts, threads);
  const auto wall = std::chrono::steady_clock::now() - t0;
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
  set_scaling_fields(m, "cluster_fattree3/P=" + num(hosts), threads, wall_ns);
  return m;
}

// ---------------------------------------------------------------------
// Suite gates.
// ---------------------------------------------------------------------

std::string param(const RunRecord& r, const char* name) {
  for (const auto& [key, value] : r.params) {
    if (key == name) return value;
  }
  return "";
}

/// NIC-vs-host acceptance: at every grid point present for both
/// backends, the NIC plane must charge strictly fewer host CPU events
/// and interrupt deliveries.
int host_cost_gate(const std::vector<RunRecord>& records) {
  int regressions = 0;
  for (const auto& nic : records) {
    if (!nic.ok || param(nic, "collective_backend") != "nic") continue;
    for (const auto& host : records) {
      if (!host.ok || param(host, "collective_backend") != "host") continue;
      if (param(host, "topology") != param(nic, "topology") ||
          param(host, "P") != param(nic, "P")) {
        continue;
      }
      const auto& n = nic.metrics;
      const auto& h = host.metrics;
      if (n.counter("host_cpu_events") < h.counter("host_cpu_events") &&
          n.counter("irq_delivered") < h.counter("irq_delivered")) {
        continue;
      }
      ++regressions;
      std::fprintf(stderr,
                   "HOST-COST REGRESSION %s: nic cpu/irq %lld/%lld vs "
                   "host %lld/%lld\n",
                   nic.name.c_str(),
                   static_cast<long long>(n.counter("host_cpu_events")),
                   static_cast<long long>(n.counter("irq_delivered")),
                   static_cast<long long>(h.counter("host_cpu_events")),
                   static_cast<long long>(h.counter("irq_delivered")));
    }
  }
  if (regressions == 0) {
    std::puts("host-cost check passed: the NIC backend beats the host "
              "backend on CPU events and interrupt deliveries everywhere");
  }
  return regressions;
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

/// The serving headline: under the same conditions the hardware
/// retransmission plane must hold a strictly better p99 than the host's
/// timeout-bound recovery (and no worse on a clean fabric, where both
/// planes are loss-free and the INIC should win on host costs alone).
/// A NIC point whose host twin (same topology, rate and chaos) is absent
/// or failed is skipped.
int tail_gate(const std::vector<RunRecord>& records) {
  int regressions = 0;
  for (const auto& r : records) {
    if (!r.ok || param(r, "plane") != "nic") continue;
    const RunRecord* host = nullptr;
    for (const auto& h : records) {
      if (param(h, "plane") == "host" &&
          param(h, "topology") == param(r, "topology") &&
          param(h, "rate_hz") == param(r, "rate_hz") &&
          param(h, "chaos") == param(r, "chaos")) {
        host = &h;
        break;
      }
    }
    if (host == nullptr || !host->ok) continue;
    const bool chaos = param(r, "chaos") != "clean";
    const std::uint64_t nic_p99 = r.metrics.latency.p99_ns;
    const std::uint64_t host_p99 = host->metrics.latency.p99_ns;
    const bool bad = chaos ? nic_p99 >= host_p99 : nic_p99 > host_p99;
    if (!bad) continue;
    ++regressions;
    std::fprintf(stderr,
                 "TAIL REGRESSION %s: NIC p99 %llu ns vs host %llu ns\n",
                 r.name.c_str(), static_cast<unsigned long long>(nic_p99),
                 static_cast<unsigned long long>(host_p99));
  }
  if (regressions == 0) {
    std::puts("tail check passed: the NIC plane holds a better p99 than "
              "the host plane at every matched point");
  }
  return regressions;
}

// ---------------------------------------------------------------------
// Suite grids.
// ---------------------------------------------------------------------

/// Appends a point to `suite`, stamped with the suite's name.
void add_point(Suite& suite, std::string name,
               std::vector<std::pair<std::string, std::string>> params,
               std::function<RunMetrics()> body) {
  suite.points.push_back(RunPoint{suite.name, std::move(name),
                                  std::move(params), std::move(body)});
}

/// The six paper-figure and ablation suites.
void add_figure_suites(bool reduced, std::vector<Suite>& suites) {
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
  Suite fig8a{"fig8a_fft_sim",
              {},
              {{"INIC model (ideal)", "model_speedup_ppm", 1e-6, 2}}};
  for (auto ic : {apps::Interconnect::kInicPrototype,
                  apps::Interconnect::kFastEthernetTcp,
                  apps::Interconnect::kGigabitTcp}) {
    for (std::size_t n : fft_sizes) {
      for (std::size_t p : procs) {
        add_point(fig8a,
                  std::string(slug(ic)) + "/n=" + num(n) + "/P=" + num(p),
                  {{"interconnect", slug(ic)}, {"n", num(n)}, {"P", num(p)}},
                  [ic, n, p] { return fft_sim_metrics(ic, n, p); });
      }
    }
  }
  suites.push_back(std::move(fig8a));

  // Figure 8(b): sort speedup, prototype vs GigE vs ideal INIC.
  Suite fig8b{"fig8b_sort_sim",
              {},
              {{"INIC model (ideal)", "model_speedup_ppm", 1e-6, 2}}};
  for (auto ic : {apps::Interconnect::kInicPrototype,
                  apps::Interconnect::kGigabitTcp,
                  apps::Interconnect::kInicIdeal}) {
    for (std::size_t p : procs) {
      add_point(
          fig8b,
          std::string(slug(ic)) + "/keys=" + num(sort_keys) + "/P=" + num(p),
          {{"interconnect", slug(ic)},
           {"keys", num(sort_keys)},
           {"P", num(p)}},
          [ic, sort_keys, p] {
            RunMetrics m = sort_sim_metrics(ic, sort_keys, p);
            m.counters.emplace_back(
                "model_speedup_ppm",
                ppm(model::SortAnalyticModel().inic_speedup(
                    sort_keys, p, /*cache_buckets=*/256)));
            return m;
          });
    }
  }
  suites.push_back(std::move(fig8b));

  // Figure 4(b): transpose decomposition (GigE, largest FFT size).
  Suite fig4b{"fig4b_transpose",
              {},
              {{"NIC comm (ms)", "nic_comm_ns", 1e-6, 2},
               {"NIC compute (ms)", "nic_compute_ns", 1e-6, 2},
               {"INIC trans (ms)", "inic_transpose_ns", 1e-6, 2},
               {"partition (KB)", "partition_bytes", 1.0 / 1024, 1}}};
  const std::size_t decomp_n = fft_sizes.back();
  for (std::size_t p : procs) {
    if (decomp_n % p != 0) continue;
    add_point(fig4b, "gige/n=" + num(decomp_n) + "/P=" + num(p),
              {{"interconnect", "gige"}, {"n", num(decomp_n)}, {"P", num(p)}},
              [decomp_n, p] { return transpose_metrics(decomp_n, p); });
  }
  suites.push_back(std::move(fig4b));

  // Figure 5(a): sort component times (GigE).
  Suite fig5a{"fig5a_sort_components",
              {},
              {{"count sort (ms)", "count_sort_ns", 1e-6, 1},
               {"phase1 bucket (ms)", "bucket_phase1_ns", 1e-6, 1},
               {"phase2 bucket (ms)", "bucket_phase2_ns", 1e-6, 1},
               {"comm (ms)", "comm_ns", 1e-6, 1},
               {"partition (KB)", "partition_bytes", 1.0 / 1024, 0}}};
  for (std::size_t p : procs) {
    add_point(
        fig5a, "gige/keys=" + num(sort_keys) + "/P=" + num(p),
        {{"interconnect", "gige"}, {"keys", num(sort_keys)}, {"P", num(p)}},
        [sort_keys, p] { return sort_components_metrics(sort_keys, p); });
  }
  suites.push_back(std::move(fig5a));

  // Ablation: INIC packet size (Section 4.2 — expected nearly flat).
  Suite packet{"ablation_packet_size",
               {},
               {{"redistribution (ms)", "redistribution_ns", 1e-6, 1}}};
  const std::vector<std::uint64_t> packets =
      reduced ? std::vector<std::uint64_t>{256, 1024, 4096}
              : std::vector<std::uint64_t>{256, 512, 1024, 2048, 4096};
  for (std::uint64_t bytes : packets) {
    model::Calibration cal = model::default_calibration();
    cal.inic_packet = Bytes(bytes);
    add_point(packet,
              "packet=" + std::to_string(bytes) + "/P=" + num(ablation_p),
              {{"packet_bytes", std::to_string(bytes)},
               {"keys", num(ablation_keys)},
               {"P", num(ablation_p)}},
              [cal, ablation_keys, ablation_p] {
                return sort_ablation_metrics(cal, ablation_keys, ablation_p);
              });
  }
  suites.push_back(std::move(packet));

  // Ablation: card-to-host DMA threshold (Equation 15's 64 KB knee).
  Suite dma{"ablation_dma_threshold",
            {},
            {{"DMA efficiency", "dma_efficiency_ppm", 1e-6, 3},
             {"N x thr delay (ms)", "accum_delay_ns", 1e-6, 1}}};
  const std::vector<std::uint64_t> thresholds_kib =
      reduced ? std::vector<std::uint64_t>{16, 64, 256}
              : std::vector<std::uint64_t>{4, 16, 32, 64, 128, 256};
  for (std::uint64_t kib : thresholds_kib) {
    model::Calibration cal = model::default_calibration();
    cal.dma_efficiency_threshold = Bytes::kib(kib);
    add_point(dma, "thr=" + std::to_string(kib) + "KiB/P=" + num(ablation_p),
              {{"threshold_kib", std::to_string(kib)},
               {"keys", num(ablation_keys)},
               {"P", num(ablation_p)}},
              [cal, ablation_keys, ablation_p] {
                return dma_threshold_metrics(cal, ablation_keys, ablation_p);
              });
  }
  suites.push_back(std::move(dma));
}

/// The ablation and extension tables of EXPERIMENTS.md beyond the six
/// figure suites: interrupt coalescing, key distribution, RC placement,
/// derived datatypes, netpipe and the compute accelerator.
void add_ablation_suites(bool reduced, std::vector<Suite>& suites) {
  // Interrupt-coalescing policy vs a GigE FFT (Section 4.1).
  struct Policy {
    const char* label;
    std::size_t frames;
    Time timeout;
  };
  const Policy policies[] = {
      {"per_packet", 1, Time::micros(1)},
      {"mild", 4, Time::micros(50)},
      {"default", 16, Time::micros(400)},
      {"aggressive", 64, Time::millis(1)},
  };
  const std::size_t fft_n = reduced ? 64 : 512;
  const std::size_t fft_p = reduced ? 4 : 8;
  Suite coalescing{"ablation_interrupt_coalescing",
                   {},
                   {{"FFT total (ms)", "fft_ns", 1e-6, 1},
                    {"transpose (ms)", "transpose_ns", 1e-6, 1},
                    {"node0 interrupts", "interrupts"},
                    {"node0 intr CPU (ms)", "interrupt_cpu_ns", 1e-6, 2}}};
  for (const Policy& pol : policies) {
    add_point(coalescing,
              std::string(pol.label) + "/frames=" + num(pol.frames) +
                  "/n=" + num(fft_n) + "/P=" + num(fft_p),
              {{"policy", pol.label},
               {"frames", num(pol.frames)},
               {"timeout_us", std::to_string(pol.timeout.as_nanos() / 1000)},
               {"n", num(fft_n)},
               {"P", num(fft_p)}},
              [pol, fft_n, fft_p] {
                return coalescing_metrics(pol.frames, pol.timeout, fft_n,
                                          fft_p);
              });
  }
  suites.push_back(std::move(coalescing));

  // Key distribution x sampling pre-sort on the ideal INIC (Section 3.2).
  struct Distribution {
    const char* label;
    apps::KeyDistribution dist;
    double sigma;
  };
  const Distribution distributions[] = {
      {"uniform", apps::KeyDistribution::kUniform, 0.0},
      {"gaussian_sigma=2^29", apps::KeyDistribution::kGaussian,
       static_cast<double>(1u << 29)},
      {"gaussian_sigma=2^27", apps::KeyDistribution::kGaussian,
       static_cast<double>(1u << 27)},
  };
  const std::size_t dist_keys = std::size_t{1} << (reduced ? 16 : 22);
  const std::size_t dist_p = reduced ? 4 : 8;
  Suite keys{"ablation_key_distribution",
             {},
             {{"top-bit buckets (ms)", "plain_ns", 1e-6, 1},
              {"sampled splitters (ms)", "sampled_ns", 1e-6, 1},
              {"sampling win", "sampling_win_ppm", 1e-6, 2}}};
  for (const Distribution& d : distributions) {
    add_point(keys,
              std::string(d.label) + "/keys=" + num(dist_keys) +
                  "/P=" + num(dist_p),
              {{"distribution", d.label},
               {"keys", num(dist_keys)},
               {"P", num(dist_p)}},
              [d, dist_keys, dist_p] {
                return key_distribution_metrics(d.dist, d.sigma, dist_keys,
                                                dist_p);
              });
  }
  suites.push_back(std::move(keys));

  // RC placement for a transform-and-transmit stream (Section 7).
  Suite rc{"ablation_rc_placement",
           {},
           {{"host CPU (ms)", "host_ns", 1e-6, 1},
            {"PCI RC card (ms)", "pci_rc_ns", 1e-6, 1},
            {"INIC (ms)", "inic_ns", 1e-6, 1},
            {"INIC win vs PCI RC", "inic_win_ppm", 1e-6, 2}}};
  const std::vector<std::uint64_t> streams_mib =
      reduced ? std::vector<std::uint64_t>{1}
              : std::vector<std::uint64_t>{1, 4, 16};
  for (std::uint64_t mib : streams_mib) {
    add_point(rc, "stream=" + std::to_string(mib) + "MiB",
              {{"stream_mib", std::to_string(mib)}},
              [mib] { return rc_placement_metrics(Bytes::mib(mib)); });
  }
  suites.push_back(std::move(rc));

  // MPI derived datatypes: host pack + TCP vs INIC gather (Section 8).
  Suite dtypes{"ablation_derived_datatypes",
               {},
               {{"payload (KiB)", "payload_bytes", 1.0 / 1024, 1},
                {"blocks", "blocks"},
                {"host pack (ms)", "pack_ns", 1e-6, 2},
                {"host total (ms)", "host_ns", 1e-6, 2},
                {"INIC total (ms)", "inic_ns", 1e-6, 2},
                {"INIC win", "inic_win_ppm", 1e-6, 2}}};
  const std::vector<std::size_t> matrices =
      reduced ? std::vector<std::size_t>{128}
              : std::vector<std::size_t>{128, 256, 512, 1024};
  for (std::size_t n : matrices) {
    add_point(dtypes, "matrix=" + num(n) + "x" + num(n), {{"n", num(n)}},
              [n] { return derived_datatype_metrics(n); });
  }
  suites.push_back(std::move(dtypes));

  // NetPIPE-style point-to-point sweep, TCP/GigE vs INIC (Section 2).
  constexpr double kMiB = 1024.0 * 1024.0;
  Suite netpipe{"netpipe_pingpong",
                {},
                {{"TCP lat (us)", "tcp_latency_ns", 1e-3, 1},
                 {"INIC lat (us)", "inic_latency_ns", 1e-3, 1},
                 {"TCP goodput (MiB/s)", "tcp_goodput_bytes_per_s",
                  1.0 / kMiB, 1},
                 {"INIC goodput (MiB/s)", "inic_goodput_bytes_per_s",
                  1.0 / kMiB, 1}}};
  const std::vector<std::uint64_t> sizes =
      reduced ? std::vector<std::uint64_t>{64, 16384}
              : std::vector<std::uint64_t>{64, 1024, 16384, 262144, 4194304};
  for (std::uint64_t size : sizes) {
    add_point(netpipe, "size=" + std::to_string(size),
              {{"bytes", std::to_string(size)}, {"messages", "8"}},
              [size] { return netpipe_metrics(Bytes(size)); });
  }
  suites.push_back(std::move(netpipe));

  // Compute-accelerator concurrency (Section 2).
  Suite accel{"ablation_compute_accelerator",
              {},
              {{"ideal stream (ms)", "ideal_ns", 1e-6, 1},
               {"ideal slowdown", "ideal_slowdown_ppm", 1e-6, 2},
               {"prototype stream (ms)", "prototype_ns", 1e-6, 1},
               {"prototype slowdown", "prototype_slowdown_ppm", 1e-6, 2}}};
  const std::vector<int> rounds =
      reduced ? std::vector<int>{1} : std::vector<int>{0, 1, 2, 4};
  for (int r : rounds) {
    add_point(accel, "offload=" + std::to_string(8 * r) + "MiB",
              {{"offload_rounds", std::to_string(r)},
               {"offload_mib", std::to_string(8 * r)}},
              [r] { return compute_accelerator_metrics(r); });
  }
  suites.push_back(std::move(accel));
}

/// Collectives over multi-hop fabrics: barrier + topology-aware
/// broadcast/reduce over star, fat-tree and torus fabrics
/// (docs/NETWORK.md), recording per-link congestion summaries.  Reduced
/// keeps P <= 256 so CI and the TSan sweep stay fast; full adds the
/// 1024-node fat-tree and torus points.
Suite topology_suite(bool reduced) {
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
  Suite suite{"fig_scaling_topology",
              {},
              {{"switches", "switches"},
               {"links", "interior_links"},
               {"link frames", "link_frames_total"},
               {"max/link", "link_frames_max"},
               {"peak queue (B)", "link_peak_queue_max_bytes"},
               {"drops", "frames_dropped"}}};
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    const net::TopologyConfig topo = g.config;
    const std::size_t p = g.p;
    add_point(suite, std::string(g.label) + "/P=" + num(p),
              {{"topology", g.label},
               {"shape", net::describe_topology(topo, p)},
               {"P", num(p)}},
              [topo, p] { return topology_metrics(topo, p); });
  }
  return suite;
}

/// Backend (host/TCP vs NIC-resident) × topology × rank-count grid,
/// barrier + topology-aware allreduce per point.  Counters expose the
/// host-cost split the NIC engine is meant to eliminate — traced CPU/IRQ
/// event counts, interrupts delivered, summed host CPU nanoseconds —
/// plus the trigger-fire tally on the card plane.
Suite collectives_suite(bool reduced) {
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
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      const net::TopologyConfig topo = g.config;
      const std::size_t p = g.p;
      add_point(suite,
                std::string(apps::to_string(backend)) + "/" + g.label +
                    "/P=" + num(p),
                {{"collective_backend", apps::to_string(backend)},
                 {"topology", g.label},
                 {"P", num(p)},
                 {"elements", num(kElements)}},
                [backend, topo, p] {
                  return collective_metrics(backend, topo, p, kElements);
                });
    }
  }
  return suite;
}

/// Permanent interior-link cuts (single and double) against live
/// collectives on multi-hop fabrics with adaptive routing on and the
/// degraded TCP fallback OFF, per backend.  Each point reports the
/// recovery latency (first cut to the fabric's re-convergence instant),
/// post-failover goodput of a bulk transfer over the re-converged route,
/// and the route-epoch / reroute-grant tallies; a point throws (runner
/// marks it failed) if a collective fails verification or any card
/// writes a peer off.
Suite failover_suite(bool reduced) {
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
  Suite suite{"failover_recovery",
              {},
              {{"clean (ms)", "clean_ns", 1e-6, 3},
               {"faulted (ms)", "faulted_ns", 1e-6, 3},
               {"recovery (us)", "recovery_latency_ns", 1e-3, 1},
               {"goodput (MB/s)", "goodput_bytes_per_s", 1e-6, 1},
               {"epochs", "route_epochs"},
               {"grants", "reroute_grants"}},
              recovery_gate};
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      const net::TopologyConfig topo = g.config;
      const std::size_t p = g.p;
      const int cuts = g.cuts;
      add_point(suite,
                std::string(apps::to_string(backend)) + "/" + g.label +
                    "/P=" + num(p) + "/cuts=" + std::to_string(cuts),
                {{"collective_backend", apps::to_string(backend)},
                 {"topology", g.label},
                 {"P", num(p)},
                 {"cuts", std::to_string(cuts)}},
                [backend, topo, p, cuts] {
                  return failover_metrics(backend, topo, p, cuts);
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
  Suite suite{"chaos_recovery",
              {},
              {{"clean (ms)", "clean_ns", 1e-6, 3},
               {"faulted (ms)", "faulted_ns", 1e-6, 3},
               {"fallback", "fallback_transfers"},
               {"retransmits", "retransmits"},
               {"crc drops", "crc_drops"}}};
  for (const auto& s : scenarios) {
    if (reduced && s.full_only) continue;
    for (const bool fft : {true, false}) {
      if (reduced && !fft) continue;  // reduced grid: FFT only
      auto plan = s.plan;
      add_point(suite, std::string(fft ? "fft" : "sort") + "/" + s.label,
                {{"app", fft ? "fft" : "sort"},
                 {"scenario", s.label},
                 {"P", "4"},
                 {fft ? "n" : "keys",
                  fft ? num(kChaosFftN) : num(kChaosSortKeys)}},
                [fft, plan] { return chaos_recovery_metrics(fft, plan); });
    }
  }
  return suite;
}

/// The open-loop Zipf-skewed KV workload (apps/kv_app.hpp) over a
/// (plane × topology × arrival rate × chaos) grid — host TCP vs hardened
/// INIC, clean fabric vs sustained ~30% bursty loss.  Every point fills
/// RunMetrics::latency (the `latency` object: nearest-rank
/// p50/p99/p999, mean, max, goodput) from the run's deterministic
/// latency histogram, and mirrors the tail into counters for the
/// serial-vs-pooled comparison.  A point throws if any response carries
/// a wrong value or a request goes unanswered.
Suite serving_suite(bool reduced) {
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
  Suite suite{"serving_tail",
              {},
              {{"responses", "responses"},
               {"p50 (us)", "p50_ns", 1e-3, 1},
               {"p99 (us)", "p99_ns", 1e-3, 1},
               {"p999 (us)", "p999_ns", 1e-3, 1},
               {"goodput (MB/s)", "goodput_bytes_per_sec", 1e-6, 2},
               {"net drops", "net_drops"}},
              tail_gate};
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    for (const bool nic : {false, true}) {
      for (const bool chaos : {false, true}) {
        const net::TopologyConfig topo = g.config;
        const double rate = g.rate_hz;
        const std::string rate_str =
            std::to_string(static_cast<long long>(rate));
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
                  [nic, topo, chaos, rate, requests_per_client] {
                    return serving_metrics(nic, topo, chaos, rate,
                                           requests_per_client);
                  });
      }
    }
  }
  return suite;
}

/// LP-partitioned fabric traffic (net/lp_workload.hpp) and the SimCluster
/// ring on the parallel event engine at 1/2/4 worker threads.  Each
/// point reports the thread-count-independent run digest and per-shard
/// stats; threads > 1 points additionally report speedup over the wall
/// clock of the shape's threads=1 point (listed first, so no point's
/// timed body runs a second simulation) and the derived
/// `scaling_efficiency` (BENCH_results.json v4).
Suite engine_scaling_suite(bool reduced) {
  struct Grid {
    const char* label;   // "topology" param and baseline-memo key
    net::LpWorkloadConfig cfg;
    bool full_only;
  };
  // The full grid's fat-tree point is the speedup floor's shape; the
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
  Suite suite{"engine_scaling",
              {},
              {{"LPs", "lp_count"},
               {"windows", "windows"},
               {"cross posts", "cross_posts"}}};
  for (const auto& g : grid) {
    if (reduced && g.full_only) continue;
    const net::LpWorkloadConfig& cfg = g.cfg;
    const std::string label = std::string(g.label) + "/P=" + num(cfg.hosts);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      add_point(suite, label + "/threads=" + num(threads),
                {{"topology", g.label},
                 {"P", num(cfg.hosts)},
                 {"frames_per_host", num(cfg.frames_per_host)},
                 {"switch_work", num(cfg.switch_work)},
                 {"threads", num(threads)}},
                [label, cfg, threads] {
                  return engine_scaling_metrics(label, cfg, threads);
                });
    }
  }
  // SimCluster points: the full device models (cards, DMA, switch
  // FIFOs) sharded across per-switch LPs — the migration the synthetic
  // LP workload above cannot see.  The full grid's 1024-host point is
  // the shape check_speedup_floor() re-measures.  Host counts must be
  // k^3/4 for an even k (fat_tree(3)): 16 reduced, 1024 full.
  const std::size_t cluster_hosts =
      reduced ? std::size_t{16} : kClusterScalingFloorHosts;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    add_point(suite,
              "cluster_fattree3/P=" + num(cluster_hosts) +
                  "/threads=" + num(threads),
              {{"topology", "cluster_fattree3"},
               {"P", num(cluster_hosts)},
               {"threads", num(threads)}},
              [cluster_hosts, threads] {
                return cluster_scaling_metrics(cluster_hosts, threads);
              });
  }
  return suite;
}

// ---------------------------------------------------------------------
// Speedup floor.
// ---------------------------------------------------------------------

/// One speedup-floor shape: `run` executes it untimed at a thread
/// count, and `diverged` reports (on stderr) whether a 4-thread run broke
/// determinism against its 1-thread twin.
struct FloorShape {
  const char* title;      // banner
  const char* pass_name;  // "<pass_name> passed" line
  const char* fail_name;  // "<fail_name> FAILED" line
  std::size_t hosts;
  std::function<RunMetrics(std::size_t threads)> run;
  std::function<bool(const RunMetrics& serial, const RunMetrics& parallel)>
      diverged;
};

}  // namespace

std::vector<Suite> bench_suites(bool reduced) {
  std::vector<Suite> suites;
  add_figure_suites(reduced, suites);
  add_ablation_suites(reduced, suites);
  suites.push_back(topology_suite(reduced));
  suites.push_back(collectives_suite(reduced));
  suites.push_back(failover_suite(reduced));
  suites.push_back(chaos_suite(reduced));
  suites.push_back(serving_suite(reduced));
  suites.push_back(engine_scaling_suite(reduced));
  return suites;
}

int check_speedup_floor() {
  const double kFloor = 1.6;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    // A 4-thread speedup floor on a host with fewer than 4 cores is
    // vacuously red: the workers time-slice one another and the best
    // possible "speedup" is ~1.0x.  Skip loudly rather than fail — the
    // determinism half of the contract is still fully checked by
    // tests/parallel_scaling_test.cpp on any core count.
    std::printf("\nfloor check SKIPPED: host reports %u core(s); the "
                ">= %.1fx @ 4 threads gate needs >= 4\n",
                cores, kFloor);
    return 0;
  }
  const net::LpWorkloadConfig cfg = engine_scaling_floor_config();
  const FloorShape shapes[] = {
      {"speedup floor", "floor", "FLOOR", cfg.hosts,
       [cfg](std::size_t threads) {
         return run_lp_scaling_point(cfg, threads);
       },
       [](const RunMetrics& serial, const RunMetrics& parallel) {
         if (serial.digest == parallel.digest &&
             serial.counter("checksum") == parallel.counter("checksum")) {
           return false;
         }
         std::fprintf(stderr,
                      "FLOOR ABORT: 1-thread and 4-thread runs diverged "
                      "(digest %s vs %s) — determinism bug, not a perf "
                      "issue\n",
                      digest_hex(serial.digest).c_str(),
                      digest_hex(parallel.digest).c_str());
         return true;
       }},
      {"SimCluster speedup floor", "cluster floor", "CLUSTER FLOOR",
       kClusterScalingFloorHosts,
       [](std::size_t threads) {
         return run_cluster_scaling_point(kClusterScalingFloorHosts,
                                          threads);
       },
       // Serial and sharded digests are different constants by design,
       // so 4-thread runs are compared against a 2-thread reference.
       [reference = std::optional<std::uint64_t>()](
           const RunMetrics& serial, const RunMetrics& parallel) mutable {
         if (!reference) {
           reference = run_cluster_scaling_point(kClusterScalingFloorHosts,
                                                 /*threads=*/2)
                           .digest;
         }
         if (parallel.digest != *reference) {
           std::fprintf(stderr,
                        "CLUSTER FLOOR ABORT: 4-thread digest %s diverged "
                        "from the 2-thread reference %s — determinism bug, "
                        "not a perf issue\n",
                        digest_hex(parallel.digest).c_str(),
                        digest_hex(*reference).c_str());
           return true;
         }
         if (parallel.sim_time != serial.sim_time) {
           std::fprintf(stderr,
                        "CLUSTER FLOOR ABORT: sharded end time diverged "
                        "from serial — equivalence bug, not a perf issue\n");
           return true;
         }
         return false;
       }},
  };
  int floor_failures = 0;
  for (const FloorShape& shape : shapes) {
    std::printf("\n== %s: fat_tree(3) %zu hosts, 4 threads, >= %.1fx ==\n",
                shape.title, shape.hosts, kFloor);
    double best = 0.0;
    // Best of three back-to-back 1- vs 4-thread attempts; stop early
    // once the floor is met to save CI time.
    for (int attempt = 1; attempt <= 3 && best < kFloor; ++attempt) {
      using clock = std::chrono::steady_clock;
      const auto t0 = clock::now();
      const RunMetrics serial = shape.run(1);
      const auto t1 = clock::now();
      const RunMetrics parallel = shape.run(4);
      const auto t2 = clock::now();
      if (shape.diverged(serial, parallel)) return 1;  // fail immediately
      const double serial_s = std::chrono::duration<double>(t1 - t0).count();
      const double parallel_s =
          std::chrono::duration<double>(t2 - t1).count();
      const double s = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
      std::printf("attempt %d: %.2fx\n", attempt, s);
      best = std::max(best, s);
    }
    if (best >= kFloor) {
      std::printf("%s passed: best %.2fx >= %.1fx\n", shape.pass_name, best,
                  kFloor);
    } else {
      ++floor_failures;
      std::fprintf(stderr,
                   "%s FAILED: best speedup %.2fx < %.1fx at 4 threads\n",
                   shape.fail_name, best, kFloor);
    }
  }
  return floor_failures;
}

}  // namespace acc::runner
