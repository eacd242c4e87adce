// Point-to-point suites: two-node transfers (RC placement, derived
// datatypes, netpipe) and the compute accelerator's card-to-card stream.
// Each row takes sim_time and digest from its INIC run (the prototype
// card for the accelerator).
#include <any>

#include "dtype/datatype.hpp"
#include "hw/node.hpp"
#include "inic/card.hpp"
#include "net/network.hpp"
#include "runner/suites/suites.hpp"
#include "sim/process.hpp"

namespace acc::runner::suites {

namespace {

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
  TwoNodeRun run;
  run.metrics = run_scenario(
      {.hosts = 2, .interconnect = ic},
      [&](apps::SimCluster& cluster, fault::FaultInjector*, RunMetrics& m) {
        const Time cpu = cpu_work ? cpu_work(cluster.node(0).cpu().memory())
                                  : Time::zero();
        sim::ProcessGroup group(cluster.engine());
        group.spawn(
            two_node_sender(cluster, cpu, dma_crossings, size, messages));
        group.spawn(two_node_receiver(cluster, messages, run.deliveries));
        m.sim_time = group.join();
      });
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
      {"payload_bytes", i64(type.packed_size().count())},
      {"blocks", i64(type.block_count())},
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
/// A standalone engine and two bare cards on the default calibration:
/// SimCluster would tune the card's burst to the cluster
/// (InicConfig::tuned_for) and change the numbers.
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

}  // namespace

/// RC placement, derived datatypes, netpipe and the compute accelerator.
void add_transfer_suites(bool reduced, std::vector<Suite>& suites) {
  // RC placement for a transform-and-transmit stream (Section 7).
  Suite rc{"ablation_rc_placement",
           {},
           {{"host CPU (ms)", "host_ns", 1e-6, 1},
            {"PCI RC card (ms)", "pci_rc_ns", 1e-6, 1},
            {"INIC (ms)", "inic_ns", 1e-6, 1},
            {"INIC win vs PCI RC", "inic_win_ppm", 1e-6, 2}}};
  const auto streams_mib = axis<std::uint64_t>(reduced, {1}, {1, 4, 16});
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
  const auto matrices =
      axis<std::size_t>(reduced, {128}, {128, 256, 512, 1024});
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
  const auto sizes = axis<std::uint64_t>(reduced, {64, 16384},
                                         {64, 1024, 16384, 262144, 4194304});
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
  const auto rounds = axis<int>(reduced, {1}, {0, 1, 2, 4});
  for (int r : rounds) {
    add_point(accel, "offload=" + std::to_string(8 * r) + "MiB",
              {{"offload_rounds", std::to_string(r)},
               {"offload_mib", std::to_string(8 * r)}},
              [r] { return compute_accelerator_metrics(r); });
  }
  suites.push_back(std::move(accel));
}

}  // namespace acc::runner::suites
