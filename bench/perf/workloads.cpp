#include "workloads.hpp"

#include <chrono>
#include <exception>
#include <optional>
#include <random>
#include <string>
#include <utility>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/kv_app.hpp"
#include "apps/sort_app.hpp"
#include "collectives/collectives.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/process.hpp"

namespace perf {

using namespace acc;

namespace {

/// Simulated-time watchdog: far beyond any run here, so only a livelock
/// (e.g. a retransmit timer re-arming forever) trips it.
const Time kWatchdog = Time::seconds(60);

struct Setup {
  std::size_t hosts = 0;
  apps::Interconnect ic = apps::Interconnect::kGigabitTcp;
  apps::ClusterOptions opts{};
  std::optional<fault::FaultPlan> faults;
};

/// What a driver callback gets besides the cluster: span bookkeeping for
/// the run it belongs to.
struct Ctx {
  const RepConfig& cfg;
  int run;

  template <class F>
  auto call(const char* name, F&& f) {
    SpanScope span(cfg.spans, name, run);
    return f();
  }
};

/// Deterministic tallies read through the cluster's public accessors and
/// core::collect_report after the run.
void collect(Ctx& ctx, apps::SimCluster& cluster, RunResult& r) {
  const core::ClusterReport report =
      ctx.call("core::collect_report",
               [&] { return core::collect_report(cluster); });
  auto& c = r.counts;
  c["sim.events"] = static_cast<double>(cluster.events_executed());
  if (sim::ParallelEngine* pe = cluster.parallel()) {
    double canceled = 0;
    for (std::size_t lp = 0; lp < pe->lp_count(); ++lp) {
      canceled += static_cast<double>(pe->lp(lp).events_canceled());
    }
    c["sim.events_canceled"] = canceled;
    c["parallel.windows"] = static_cast<double>(pe->windows());
    c["parallel.cross_posts"] = static_cast<double>(pe->cross_posts());
    r.shards = pe->shard_stats();
  } else {
    c["sim.events_canceled"] =
        static_cast<double>(cluster.engine().events_canceled());
  }

  net::Network& net = cluster.network();
  const auto dropped_link = net.frames_dropped_link_down();
  c["net.frames_forwarded"] = static_cast<double>(report.frames_forwarded);
  c["net.bytes_forwarded"] = static_cast<double>(report.bytes_forwarded.count());
  c["net.frames_dropped"] = static_cast<double>(report.frames_dropped);
  c["net.drops_link"] = static_cast<double>(dropped_link);
  // No run enables uniform random loss, so every other drop is either a
  // Gilbert-Elliott burst loss or a drop-tail (congestion) overflow.
  c["net.drops_congestion"] = static_cast<double>(
      report.frames_dropped - dropped_link - net.frames_dropped_burst());
  c["net.peak_port_buffer_bytes"] =
      static_cast<double>(report.peak_port_buffer.count());

  for (const auto& n : report.nodes) {
    c["hw.cpu_protocol_s"] += n.protocol_time.as_seconds();
    c["hw.cpu_interrupt_s"] += n.interrupt_time.as_seconds();
    c["hw.cpu_compute_s"] += n.compute_time.as_seconds();
    c["hw.interrupts"] += static_cast<double>(n.interrupts);
    c["hw.pci_bytes"] += static_cast<double>(n.pci_bytes.count());
    c["inic.bursts"] += static_cast<double>(n.inic_bursts);
    c["inic.retransmits"] += static_cast<double>(n.inic_retransmits);
    c["inic.bytes_to_host"] += static_cast<double>(n.inic_bytes_to_host.count());
  }
  for (const char* name : {"tcp.retransmits", "tcp.timeouts",
                           "coll.trigger_fires", "fault.events"}) {
    c[name] = 0;
  }
  for (const auto& s : report.counters) {
    const auto v = static_cast<double>(s.value);
    if (s.name == "tcp/retransmits") c["tcp.retransmits"] += v;
    if (s.name == "tcp/timeouts") c["tcp.timeouts"] += v;
    if (s.name == "coll/trigger_fires") c["coll.trigger_fires"] += v;
    if (s.name == "fault/events") c["fault.events"] += v;
  }
  if (ctx.cfg.traced) {
    r.digest = cluster.digest();
    r.trace_records = cluster.trace_records();
  }
}

/// Constructs the cluster (and fault injector), calls `drive`, and
/// collects the run's tallies.  Only construction, arming and `drive` are
/// timed; report collection and teardown are not part of a run's wall.
template <class Drive>
RunResult measure(const RepConfig& cfg, int run, std::string label,
                  const Setup& s, Drive&& drive) {
  RunResult r;
  r.label = std::move(label);
  Ctx ctx{cfg, run};
  SpanScope run_span(cfg.spans, "run " + r.label, run);
  try {
    const auto t0 = Clock::now();
    std::optional<apps::SimCluster> cluster;
    ctx.call("SimCluster", [&] {
      cluster.emplace(s.hosts, s.ic, model::default_calibration(), s.opts);
    });
    r.ctor_s = since(t0);
    std::optional<fault::FaultInjector> injector;
    if (s.faults) {
      const auto t1 = Clock::now();
      ctx.call("fault::FaultInjector",
               [&] { injector.emplace(*cluster, *s.faults); });
      r.arm_s = since(t1);
    }
    cluster->engine().set_time_budget(kWatchdog);
    if (cfg.traced) cluster->enable_tracing(/*ring_capacity=*/64);
    const auto t2 = Clock::now();
    drive(ctx, *cluster, r);
    r.drive_s = since(t2);
    collect(ctx, *cluster, r);
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

void fail_unless(RunResult& r, bool ok, const char* why) {
  if (!ok && r.ok) {
    r.ok = false;
    r.error = why;
  }
}

const char* slug(apps::Interconnect ic) {
  switch (ic) {
    case apps::Interconnect::kFastEthernetTcp: return "fast_ethernet";
    case apps::Interconnect::kGigabitTcp: return "gige";
    case apps::Interconnect::kInicIdeal: return "inic_ideal";
    case apps::Interconnect::kInicPrototype: return "inic_prototype";
  }
  return "?";
}

// ---------------------------------------------------------------------
// paper_verified: the paper's Figure 8 grid, outputs checked against the
// serial oracles.
// ---------------------------------------------------------------------
std::vector<RunResult> paper_verified(const RepConfig& cfg) {
  const std::size_t n = cfg.smoke ? 64 : 256;
  const std::size_t keys = cfg.smoke ? std::size_t{1} << 16 : std::size_t{1} << 20;
  const std::vector<std::size_t> procs =
      cfg.smoke ? std::vector<std::size_t>{2, 4}
                : std::vector<std::size_t>{2, 4, 8, 16};
  std::vector<RunResult> out;
  int run = 0;
  for (auto ic : {apps::Interconnect::kFastEthernetTcp,
                  apps::Interconnect::kGigabitTcp,
                  apps::Interconnect::kInicIdeal,
                  apps::Interconnect::kInicPrototype}) {
    for (std::size_t p : procs) {
      const Setup s{p, ic, {}, std::nullopt};
      const std::string tag = std::string(slug(ic)) + "/P=" + std::to_string(p);
      out.push_back(measure(cfg, run++, "fft/" + tag, s,
                            [&](Ctx& ctx, apps::SimCluster& c, RunResult& r) {
        apps::FftRunOptions o;
        o.verify = true;
        o.seed = cfg.seed;
        const auto res = ctx.call("apps::run_parallel_fft",
                                  [&] { return apps::run_parallel_fft(c, n, o); });
        r.sim_ns = res.total.as_nanos();
        fail_unless(r, res.verified, "FFT output differs from the serial oracle");
      }));
      out.push_back(measure(cfg, run++, "sort/" + tag, s,
                            [&](Ctx& ctx, apps::SimCluster& c, RunResult& r) {
        apps::SortRunOptions o;
        o.verify = true;
        o.seed = cfg.seed;
        const auto res = ctx.call("apps::run_parallel_sort", [&] {
          return apps::run_parallel_sort(c, keys, o);
        });
        r.sim_ns = res.total.as_nanos();
        fail_unless(r, res.verified, "sort output is not the sorted input");
      }));
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// fabric_collectives: bulk allreduce over large multi-hop fabrics.
// ---------------------------------------------------------------------
std::vector<RunResult> fabric_collectives(const RepConfig& cfg) {
  struct Shape {
    const char* label;
    net::TopologyConfig topo;
    std::size_t hosts;
  };
  const std::vector<Shape> shapes =
      cfg.smoke ? std::vector<Shape>{{"fattree3", net::TopologyConfig::fat_tree(3), 16},
                                     {"torus3", net::TopologyConfig::torus(3), 64},
                                     {"fattree2", net::TopologyConfig::fat_tree(2), 16}}
                : std::vector<Shape>{{"fattree3", net::TopologyConfig::fat_tree(3), 1024},
                                     {"torus3", net::TopologyConfig::torus(3), 1024},
                                     {"fattree2", net::TopologyConfig::fat_tree(2), 256}};
  const std::size_t elements = cfg.smoke ? 512 : 8192;
  std::vector<RunResult> out;
  int run = 0;
  for (const Shape& shape : shapes) {
    for (auto backend : {apps::CollectiveBackend::kHost,
                         apps::CollectiveBackend::kNic}) {
      const bool nic = backend == apps::CollectiveBackend::kNic;
      Setup s;
      s.hosts = shape.hosts;
      s.ic = nic ? apps::Interconnect::kInicIdeal : apps::Interconnect::kGigabitTcp;
      s.opts.topology = shape.topo;
      s.opts.collective_backend = backend;
      const std::string label = std::string(nic ? "nic/" : "host/") + shape.label +
                                "/P=" + std::to_string(shape.hosts);
      out.push_back(measure(cfg, run++, label, s,
                            [&](Ctx& ctx, apps::SimCluster& c, RunResult& r) {
        const auto bar = ctx.call("coll::barrier", [&] { return coll::barrier(c); });
        const auto red = ctx.call("coll::topology_allreduce", [&] {
          return coll::topology_allreduce(c, elements, cfg.seed);
        });
        // join() reports absolute finish times: the allreduce's total is
        // the whole timeline.
        r.sim_ns = red.total.as_nanos();
        fail_unless(r, bar.verified, "barrier released a rank early");
        fail_unless(r, red.verified, "allreduce result differs from the serial sum");
      }));
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// kv_serving: open-loop Zipf KV, host vs NIC plane, clean vs bursty loss.
// ---------------------------------------------------------------------
std::vector<RunResult> kv_serving(const RepConfig& cfg) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kServers = 8;
  std::vector<RunResult> out;
  int run = 0;
  for (const bool fattree : {false, true}) {
    for (const bool nic : {false, true}) {
      for (const bool loss : {false, true}) {
        Setup s;
        s.hosts = kClients + kServers;
        s.ic = nic ? apps::Interconnect::kInicIdeal : apps::Interconnect::kGigabitTcp;
        s.opts.topology = fattree ? net::TopologyConfig::fat_tree(2)
                                  : net::TopologyConfig::star();
        if (nic) {
          // Retry forever: under loss the question is how late a response
          // gets, never whether it arrives.
          s.opts.inic_hw_retransmit = true;
          s.opts.inic_max_retries = 0;
        }
        if (loss) {
          // ~30% average loss in bursts: a third of the time in a bad
          // state that drops 90% of frames.
          fault::GilbertElliottParams ge;
          ge.p_good_to_bad = 0.1;
          ge.p_bad_to_good = 0.2;
          ge.loss_bad = 0.9;
          fault::FaultPlan plan;
          plan.with_seed(cfg.seed).with_burst_loss(Time::micros(50),
                                                   Time::seconds(2), ge);
          s.faults = plan;
        }
        const std::string label = std::string(nic ? "nic/" : "host/") +
                                  (fattree ? "fattree2/" : "star/") +
                                  (loss ? "loss30" : "clean");
        out.push_back(measure(cfg, run++, label, s,
                              [&](Ctx& ctx, apps::SimCluster& c, RunResult& r) {
          apps::KvRunOptions o;
          o.clients = kClients;
          o.servers = kServers;
          o.requests_per_client = cfg.smoke ? 100 : 2000;
          o.rate_hz = 20000.0;
          o.arrivals = apps::ArrivalProcess::kPoisson;
          o.seed = cfg.seed;
          o.verify = true;
          const auto res = ctx.call("apps::run_kv_serving",
                                    [&] { return apps::run_kv_serving(c, o); });
          r.sim_ns = res.total.as_nanos();
          r.has_latency = true;
          r.latency = res.latency;
          r.counts["kv.requests"] = static_cast<double>(res.requests);
          r.counts["kv.payload_bytes"] = static_cast<double>(res.payload_bytes.count());
          fail_unless(r, res.verified, "a response carried the wrong value");
          fail_unless(r, res.responses == res.requests, "requests went unanswered");
        }));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// sharded_ring: a 1024-host INIC fat tree on the parallel engine, each
// host streaming to the host a seeded cross-pod rotation away.
// ---------------------------------------------------------------------
sim::Process ring_sender(apps::SimCluster& c, int src, int dst, int rounds,
                         Bytes size) {
  for (int r = 0; r < rounds; ++r) {
    co_await c.transfer(src, dst, size, static_cast<std::uint64_t>(r));
  }
}

sim::Process ring_receiver(apps::SimCluster& c, std::size_t node, int rounds,
                           std::uint32_t& received) {
  for (int r = 0; r < rounds; ++r) {
    (void)co_await c.inbox(node).recv();
    ++received;
  }
}

/// Destination of each host: a rotation by a seeded odd offset of at
/// least one pod and at most n - pod hosts.  An odd offset on a
/// power-of-two host count makes the permutation a single cycle (every
/// host sends and receives exactly one stream), and the offset range
/// makes every stream cross pods.  A uniformly random single cycle would
/// do both too, but its worst-case path contention sets the makespan and
/// so the window count, which moved by 17% (4962 to 5819 windows) over
/// three seeds and host time with it; over rotations it moves by ~3%.
std::vector<std::size_t> cross_pod_rotation(std::size_t n, std::uint64_t seed) {
  std::size_t k = 2;  // fat_tree(3) holds n = k^3/4 hosts in k pods
  while (k * k * k / 4 < n) k += 2;
  const std::size_t pod = n / k;
  std::mt19937_64 rng(seed);
  const std::size_t offset = pod + 1 + 2 * (rng() % ((n - 2 * pod) / 2));
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = (i + offset) % n;
  return perm;
}

std::vector<RunResult> sharded_ring(const RepConfig& cfg) {
  constexpr int kRounds = 3;
  const Bytes kSize = Bytes::kib(64);
  const std::size_t hosts = cfg.smoke ? 128 : 1024;  // k^3/4 for k = 8, 16
  Setup s;
  s.hosts = hosts;
  s.ic = apps::Interconnect::kInicIdeal;
  s.opts.topology = net::TopologyConfig::fat_tree(3);
  s.opts.engine_threads = cfg.engine_threads;
  const std::vector<std::size_t> perm = cross_pod_rotation(hosts, cfg.seed);
  std::vector<RunResult> out;
  out.push_back(measure(cfg, 0, "inic_ideal/fattree3/P=" + std::to_string(hosts), s,
                        [&](Ctx& ctx, apps::SimCluster& c, RunResult& r) {
    std::vector<std::uint32_t> received(hosts, 0);
    sim::ProcessGroup group = c.parallel() ? sim::ProcessGroup(*c.parallel())
                                           : sim::ProcessGroup(c.engine());
    for (std::size_t i = 0; i < hosts; ++i) {
      const std::size_t dst = perm[i];
      group.spawn_on(c.node_lp(i),
                     ring_sender(c, static_cast<int>(i), static_cast<int>(dst),
                                 kRounds, kSize));
      group.spawn_on(c.node_lp(dst),
                     ring_receiver(c, dst, kRounds, received[dst]));
    }
    const Time end = ctx.call("SimCluster::run", [&] { return c.run(); });
    ctx.call("sim::ProcessGroup::join", [&] { return group.join(); });
    r.sim_ns = end.as_nanos();
    std::uint64_t delivered = 0;
    for (std::uint32_t got : received) delivered += got;
    r.counts["ring.delivered"] = static_cast<double>(delivered);
    fail_unless(r, delivered == hosts * kRounds,
                "fewer messages delivered than hosts x rounds");
  }));
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_verified", 1, paper_verified},
      {"fabric_collectives", 1, fabric_collectives},
      {"kv_serving", 1, kv_serving},
      {"sharded_ring", 4, sharded_ring},
  };
  return all;
}

}  // namespace perf
