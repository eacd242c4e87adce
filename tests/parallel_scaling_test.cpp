// Thread-count independence of full runs (docs/TRACING.md):
//
//   * SimCluster runs — per-switch partitions (engine_threads >= 2 on a
//     shardable fabric) put the full device models on per-switch LPs,
//     digest bit-identical across every thread count >= 2, with end time
//     and merged counter totals equal to the one-LP run's (the per-switch
//     digest is a different constant by design: per-lane frame ids);
//     one-LP partitions are bit-identical at every thread count.
//   * The synthetic LP workload (net/lp_workload.hpp), digest
//     bit-identical for ANY worker count including 1.  That workload is
//     only bench/perf's window-probe fixture; its three cases here go
//     when the probe moves onto a SimCluster scenario and the workload is
//     deleted.
//
// CI additionally runs this binary under ThreadSanitizer, where
// FatTree1024StressPoint (320 LPs) is the data-race probe for the worker
// and mailbox machinery at scale, and the SimCluster cases for the
// migrated device models.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.hpp"
#include "common/units.hpp"
#include "model/calibration.hpp"
#include "apps/kv_app.hpp"
#include "net/lp_workload.hpp"
#include "net/topology.hpp"
#include "sim/process.hpp"
#include "trace/counters.hpp"

namespace acc {
namespace {

struct TopoCase {
  const char* label;
  net::TopologyConfig config;
  std::size_t hosts;
};

// ---------------------------------------------------------------------
// LP workload: bench/perf's window-probe fixture
// ---------------------------------------------------------------------

std::vector<TopoCase> workload_topologies() {
  return {
      {"star", net::TopologyConfig::star(), 16},
      {"fattree2", net::TopologyConfig::fat_tree(2), 64},
      {"fattree3", net::TopologyConfig::fat_tree(3), 128},
      {"torus2", net::TopologyConfig::torus(2), 64},
      {"torus3", net::TopologyConfig::torus(3), 64},
  };
}

net::LpWorkloadConfig workload_config(const TopoCase& tc) {
  net::LpWorkloadConfig cfg;
  cfg.topology = tc.config;
  cfg.hosts = tc.hosts;
  cfg.frames_per_host = 8;
  cfg.switch_work = 32;
  cfg.inject_spread = Time::micros(50);
  return cfg;
}

TEST(ParallelScaling, WorkloadInvariantsIndependentOfThreadCountEverywhere) {
  for (const TopoCase& tc : workload_topologies()) {
    const net::LpWorkloadConfig cfg = workload_config(tc);
    const net::LpWorkloadResult ref = net::run_lp_workload(cfg, /*threads=*/1);
    EXPECT_EQ(ref.delivered, cfg.hosts * cfg.frames_per_host) << tc.label;
    EXPECT_GE(ref.hops, ref.delivered) << tc.label;
    EXPECT_GT(ref.trace_records, 0u) << tc.label;
    for (std::size_t threads : {std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      const net::LpWorkloadResult run = net::run_lp_workload(cfg, threads);
      EXPECT_EQ(run.digest, ref.digest)
          << tc.label << " digest diverged at threads=" << threads;
      EXPECT_EQ(run.checksum, ref.checksum) << tc.label << " t=" << threads;
      EXPECT_EQ(run.events, ref.events) << tc.label << " t=" << threads;
      EXPECT_EQ(run.delivered, ref.delivered) << tc.label << " t=" << threads;
      EXPECT_EQ(run.hops, ref.hops) << tc.label << " t=" << threads;
      EXPECT_EQ(run.windows, ref.windows) << tc.label << " t=" << threads;
      EXPECT_EQ(run.cross_posts, ref.cross_posts)
          << tc.label << " t=" << threads;
      EXPECT_EQ(run.trace_records, ref.trace_records)
          << tc.label << " t=" << threads;
      EXPECT_EQ(run.sim_time, ref.sim_time) << tc.label << " t=" << threads;
    }
  }
}

TEST(ParallelScaling, SingleSwitchStarDegeneratesToOneLp) {
  // A star has no interior links: one LP, zero lookahead, zero cross
  // posts — the parallel engine must handle the degenerate partition.
  net::LpWorkloadConfig cfg = workload_config(workload_topologies()[0]);
  const net::LpWorkloadResult r = net::run_lp_workload(cfg, /*threads=*/4);
  EXPECT_EQ(r.lp_count, 1u);
  EXPECT_EQ(r.cross_posts, 0u);
  EXPECT_EQ(r.delivered, cfg.hosts * cfg.frames_per_host);
}

TEST(ParallelScaling, FatTree1024StressPoint) {
  // fat_tree(3) at 1024 hosts = 320 switch LPs, light per-hop work so
  // the TSan job can afford it.  Checks the full determinism contract at
  // the scale where every worker is saturated and every barrier drains
  // many outboxes.
  net::LpWorkloadConfig cfg;
  cfg.topology = net::TopologyConfig::fat_tree(3);
  cfg.hosts = 1024;
  cfg.frames_per_host = 4;
  cfg.switch_work = 64;
  const net::LpWorkloadResult ref = net::run_lp_workload(cfg, /*threads=*/1);
  const net::LpWorkloadResult run = net::run_lp_workload(cfg, /*threads=*/4);
  EXPECT_EQ(run.digest, ref.digest);
  EXPECT_EQ(run.checksum, ref.checksum);
  EXPECT_EQ(run.events, ref.events);
  EXPECT_EQ(run.delivered, cfg.hosts * cfg.frames_per_host);
  EXPECT_GT(run.lp_count, 100u);
  EXPECT_GT(run.cross_posts, 0u);
}

// ---------------------------------------------------------------------
// SimCluster device models on LPs: digest/counter contract
// ---------------------------------------------------------------------
//
// Digest semantics (docs/TRACING.md): engine_threads <= 1 runs the one-
// LP partition — the historical serial dispatch, whose digest is the
// golden-pinned value.  engine_threads >= 2 on a shardable fabric puts
// the device models on per-switch LPs with per-lane frame ids, so the
// combined digest is a DIFFERENT constant — but the same one for every
// thread count >= 2, and the merged counter totals and end time must
// equal the one-LP run exactly.  A single-switch star (and adaptive
// routing, and degraded fallback) stays on one LP at every thread
// count, so there the digest matches the 1-thread run.

std::vector<TopoCase> cluster_topologies() {
  return {
      {"star", net::TopologyConfig::star(), 8},
      {"fattree2", net::TopologyConfig::fat_tree(2), 8},
      {"fattree3", net::TopologyConfig::fat_tree(3), 16},
      {"torus2", net::TopologyConfig::torus(2), 8},
      {"torus3", net::TopologyConfig::torus(3, 2, 2, 2), 8},
  };
}

struct ClusterRun {
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
  std::uint64_t events = 0;
  Time end = Time::zero();
  std::vector<trace::CounterSample> counters;
  std::size_t lp_count = 0;
};

/// A neighbour ring of 4 KiB transfers with every rank coroutine spawned
/// on its node's LP; SimCluster::run() drives the cluster's partition.
/// Returns the end time.
Time run_ring(apps::SimCluster& cluster) {
  const std::size_t hosts = cluster.size();
  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t i = 0; i < hosts; ++i) {
    const int src = static_cast<int>(i);
    const int dst = static_cast<int>((i + 1) % hosts);
    group.spawn_on(cluster.node_lp(i),
                   cluster.transfer(src, dst, Bytes::kib(4), i));
    group.spawn_on(cluster.node_lp(static_cast<std::size_t>(dst)),
                   [](apps::SimCluster& c, int node) -> sim::Process {
                     (void)co_await c.inbox(static_cast<std::size_t>(node))
                         .recv();
                   }(cluster, dst));
  }
  const Time end = cluster.run();
  group.join();  // queue already drained; verifies nothing is stuck
  return end;
}

/// The neighbour ring on the partition that `copts` (with tc's topology
/// and `threads`) selects.
ClusterRun cluster_run(const TopoCase& tc, std::size_t threads,
                       apps::ClusterOptions copts) {
  copts.topology = tc.config;
  copts.engine_threads = threads;
  apps::SimCluster cluster(tc.hosts, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.enable_tracing(/*ring_capacity=*/64);
  ClusterRun out;
  out.end = run_ring(cluster);
  out.digest = cluster.digest();
  out.records = cluster.trace_records();
  out.events = cluster.events_executed();
  out.counters = cluster.counters_snapshot();
  out.lp_count = cluster.partition().lp_count;
  return out;
}

/// Open-loop KV serving on the same cluster shape; returns the merged
/// run telemetry plus the KV result's own verification flag.
ClusterRun cluster_kv_run(const TopoCase& tc, std::size_t threads,
                          bool* verified) {
  apps::ClusterOptions copts;
  copts.topology = tc.config;
  copts.engine_threads = threads;
  apps::SimCluster cluster(tc.hosts, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.enable_tracing(/*ring_capacity=*/64);
  apps::KvRunOptions kv;
  kv.clients = tc.hosts / 2;
  kv.servers = tc.hosts / 2;
  kv.requests_per_client = 12;
  kv.rate_hz = 50000.0;
  const apps::KvRunResult r = apps::run_kv_serving(cluster, kv);
  if (verified != nullptr) *verified = r.verified;
  ClusterRun out;
  out.end = r.total;
  out.digest = cluster.digest();
  out.records = cluster.trace_records();
  out.events = cluster.events_executed();
  out.counters = cluster.counters_snapshot();
  out.lp_count = cluster.partition().lp_count;
  return out;
}

void expect_same_run(const ClusterRun& run, const ClusterRun& ref,
                     const char* label, std::size_t threads) {
  EXPECT_EQ(run.digest, ref.digest)
      << label << " digest diverged at engine_threads=" << threads;
  EXPECT_EQ(run.records, ref.records) << label << " t=" << threads;
  EXPECT_EQ(run.events, ref.events) << label << " t=" << threads;
  EXPECT_EQ(run.end, ref.end) << label << " t=" << threads;
}

/// Serial-vs-sharded equivalence: the merged per-LP counter totals must
/// equal the serial registry exactly, key by key.
void expect_same_counters(const std::vector<trace::CounterSample>& run,
                          const std::vector<trace::CounterSample>& ref,
                          const char* label, std::size_t threads) {
  ASSERT_EQ(run.size(), ref.size()) << label << " t=" << threads;
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].category, ref[i].category) << label << " t=" << threads;
    EXPECT_EQ(run[i].node, ref[i].node) << label << " t=" << threads;
    EXPECT_EQ(run[i].name, ref[i].name) << label << " t=" << threads;
    EXPECT_EQ(run[i].value, ref[i].value)
        << label << " t=" << threads << " counter " << run[i].name << "/"
        << run[i].node;
  }
}

TEST(ParallelScaling, ClusterDigestIndependentOfShardedThreadCount) {
  for (const TopoCase& tc : cluster_topologies()) {
    const ClusterRun serial = cluster_run(tc, /*threads=*/1, {});
    EXPECT_GT(serial.events, 0u) << tc.label;
    EXPECT_EQ(serial.lp_count, 1u) << tc.label;
    EXPECT_GT(serial.records, 0u) << tc.label;
    const ClusterRun sharded = cluster_run(tc, /*threads=*/2, {});
    // End time and merged counters match serial on every family; the
    // digest additionally matches when the plan stays single-LP (star).
    EXPECT_EQ(sharded.end, serial.end) << tc.label;
    expect_same_counters(sharded.counters, serial.counters, tc.label, 2);
    if (sharded.lp_count == 1) {
      expect_same_run(sharded, serial, tc.label, 2);
    }
    for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
      const ClusterRun run = cluster_run(tc, threads, {});
      expect_same_run(run, sharded, tc.label, threads);
      expect_same_counters(run.counters, serial.counters, tc.label, threads);
    }
  }
}

TEST(ParallelScaling, ChromeExportHoldsEveryLane) {
  // The exported trace of a per-switch run (ACC_TRACE's file) holds every
  // lane's records, not LP 0's slice, and is labelled with the run's
  // combined digest and total record count.
  apps::ClusterOptions copts;
  copts.topology = net::TopologyConfig::fat_tree(3);
  copts.engine_threads = 2;
  apps::SimCluster cluster(16, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  ASSERT_GT(cluster.partition().lp_count, 1u);
  cluster.enable_tracing();  // unbounded: the export retains every record
  run_ring(cluster);
  ASSERT_LT(cluster.tracer().records_emitted(), cluster.trace_records());

  std::ostringstream os;
  cluster.write_chrome_json(os);
  const std::string json = os.str();
  std::uint64_t events = 0;
  for (std::size_t at = json.find("\"ph\":"); at != std::string::npos;
       at = json.find("\"ph\":", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, cluster.trace_records());
  char label[96];
  std::snprintf(label, sizeof label,
                "\"otherData\":{\"digest\":\"%016llx\",\"records\":%llu}",
                static_cast<unsigned long long>(cluster.digest()),
                static_cast<unsigned long long>(cluster.trace_records()));
  EXPECT_NE(json.find(label), std::string::npos)
      << label << " not in " << json.substr(json.size() - 96);
}

TEST(ParallelScaling, OneLpFeaturesIndependentOfThreadCount) {
  // Adaptive routing and degraded fallback keep a multi-switch fabric on
  // one LP, built through the partitioned Fabric constructor: every
  // thread count must reproduce the 1-thread run bit for bit.
  const TopoCase fattree2{"fattree2", net::TopologyConfig::fat_tree(2), 8};
  apps::ClusterOptions adaptive;
  adaptive.adaptive_routing = true;
  apps::ClusterOptions fallback;
  fallback.degraded_fallback = true;
  for (const auto& [label, copts] :
       {std::pair{"adaptive_routing", adaptive},
        std::pair{"degraded_fallback", fallback}}) {
    const ClusterRun ref = cluster_run(fattree2, /*threads=*/1, copts);
    const ClusterRun run = cluster_run(fattree2, /*threads=*/4, copts);
    EXPECT_GT(ref.events, 0u) << label;
    EXPECT_EQ(ref.lp_count, 1u) << label;
    EXPECT_EQ(run.lp_count, 1u) << label;
    expect_same_run(run, ref, label, 4);
  }
}

TEST(ParallelScaling, ClusterNamesThePartitionItTookAndWhy) {
  struct Case {
    const char* reason;
    net::TopologyConfig topology;
    apps::Interconnect ic;
    std::size_t threads;
    bool adaptive_routing;
    bool degraded_fallback;
  };
  const auto fattree2 = net::TopologyConfig::fat_tree(2);
  const auto inic = apps::Interconnect::kInicIdeal;
  const Case cases[] = {
      {"one LP: engine_threads <= 1", fattree2, inic, 1, false, false},
      {"one LP: single switch", net::TopologyConfig::star(), inic, 2, false,
       false},
      {"one LP: adaptive routing", fattree2, inic, 2, true, false},
      {"one LP: degraded fallback", fattree2, inic, 2, false, true},
      {"per-switch", fattree2, inic, 2, false, false},
      // Degraded fallback only exists on INIC clusters.
      {"per-switch", fattree2, apps::Interconnect::kGigabitTcp, 2, false,
       true},
  };
  for (const Case& c : cases) {
    apps::ClusterOptions copts;
    copts.topology = c.topology;
    copts.engine_threads = c.threads;
    copts.adaptive_routing = c.adaptive_routing;
    copts.degraded_fallback = c.degraded_fallback;
    apps::SimCluster cluster(8, c.ic, model::default_calibration(), copts);
    EXPECT_STREQ(cluster.partition_reason(), c.reason);
    const bool per_switch = std::string(c.reason) == "per-switch";
    EXPECT_EQ(cluster.partition().lp_count,
              per_switch ? cluster.network().switch_count() : 1u)
        << c.reason;
    EXPECT_GT(cluster.network().switch_count(), per_switch ? 1u : 0u);
  }
}

TEST(ParallelScaling, ClusterRejectsZeroEngineThreads) {
  // 0 is not a second spelling of 1: ParallelConfig refuses it too.
  apps::ClusterOptions copts;
  copts.engine_threads = 0;
  EXPECT_THROW(apps::SimCluster(8, apps::Interconnect::kInicIdeal,
                                model::default_calibration(), copts),
               std::invalid_argument);
}

TEST(ParallelScaling, ClusterKvServingMatchesSerialOnEveryFamily) {
  for (const TopoCase& tc : cluster_topologies()) {
    bool ref_verified = false;
    const ClusterRun serial = cluster_kv_run(tc, /*threads=*/1,
                                             &ref_verified);
    EXPECT_TRUE(ref_verified) << tc.label;
    const ClusterRun sharded = cluster_kv_run(tc, /*threads=*/2, nullptr);
    EXPECT_EQ(sharded.end, serial.end) << tc.label;
    expect_same_counters(sharded.counters, serial.counters, tc.label, 2);
    for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
      bool run_verified = false;
      const ClusterRun run = cluster_kv_run(tc, threads, &run_verified);
      EXPECT_TRUE(run_verified) << tc.label << " t=" << threads;
      expect_same_run(run, sharded, tc.label, threads);
      expect_same_counters(run.counters, serial.counters, tc.label, threads);
    }
  }
}

}  // namespace
}  // namespace acc
