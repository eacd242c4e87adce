// The engine_scaling suite and the two shapes check_speedup_floor()
// re-measures.  Bodies are untimed: the runner measures each point's
// wall clock, and derive_scaling_ratios() turns those into speedups.
#include "net/lp_workload.hpp"
#include "runner/suites/suites.hpp"
#include "sim/process.hpp"

namespace acc::runner::suites {

namespace {

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

RunMetrics run_lp_scaling_point(const net::LpWorkloadConfig& cfg,
                                std::size_t threads) {
  const net::LpWorkloadResult r = net::run_lp_workload(cfg, threads);
  RunMetrics m;
  m.sim_time = r.sim_time;
  m.digest = r.digest;
  m.trace_records = r.trace_records;
  m.events = r.events;
  m.threads = threads;
  for (const auto& s : r.shards) {
    m.shards.push_back(ShardSummary{s.events, s.wall_ns});
  }
  // Everything here is a pure function of cfg — the serial-vs-pooled
  // comparison in tests/runner_test.cpp checks these bit-for-bit.
  m.counters = {
      {"delivered", i64(r.delivered)},
      {"hops", i64(r.hops)},
      {"checksum", i64(r.checksum)},
      {"windows", i64(r.windows)},
      {"cross_posts", i64(r.cross_posts)},
      {"lp_count", i64(r.lp_count)},
  };
  return m;
}

/// One SimCluster engine-scaling run: a neighbour-ring INIC transfer
/// workload on a fat-tree cluster with the full device models (cards,
/// DMA, switch FIFOs) sharded across per-switch LPs when threads >= 2.
/// Digest semantics follow docs/TRACING.md: threads <= 1 runs the one-LP
/// partition and reports the historical digest; any threads >= 2 report
/// one common per-switch digest (per-lane frame ids), so floor checks
/// compare wall clock 1-vs-4 but digests only among per-switch runs.
RunMetrics run_cluster_scaling_point(std::size_t hosts, std::size_t threads) {
  const Scenario s{.hosts = hosts,
                   .options = {.topology = net::TopologyConfig::fat_tree(3),
                               .engine_threads = threads},
                   .trace_ring = 64};
  return run_scenario(s, [hosts](apps::SimCluster& cluster,
                                 fault::FaultInjector*, RunMetrics& m) {
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
    m.sim_time = cluster.run();
    group.join();
    const sim::ParallelEngine& pe = *cluster.parallel();
    for (const auto& sh : pe.shard_stats()) {
      m.shards.push_back(ShardSummary{sh.events, sh.wall_ns});
    }
    m.counters = {
        {"lp_count", i64(pe.lp_count())},
        {"windows", i64(pe.windows())},
        {"cross_posts", i64(pe.cross_posts())},
    };
  });
}

}  // namespace

/// Each shape at 1, 2 and 4 worker threads, threads = 1 first.  Every
/// point reports the thread-count-independent run digest and per-shard
/// stats; derive_scaling_ratios() later gives each threads > 1 point its
/// speedup over the shape's threads = 1 point and the derived
/// `scaling_efficiency` (BENCH_results.json v4).
Suite engine_scaling_suite(bool reduced) {
  struct Grid {
    const char* label;  // "topology" param
    net::LpWorkloadConfig cfg;
    bool full_only;
  };
  const Grid grid[] = {
      // Keeps the suite in the serial-vs-pooled determinism gate without
      // dominating its wall clock.
      {"fattree2",
       {.topology = net::TopologyConfig::fat_tree(2),
        .hosts = 64,
        .frames_per_host = 16,
        .switch_work = 96},
       false},
      // The speedup floor's shape (check_speedup_floor()).  k = 16 fat
      // tree: 1024 hosts over 320 switch LPs, with per-hop work heavy
      // enough that window parallelism (not barrier overhead) dominates.
      // The 2 us interior latency (= lookahead) over a 100 us injection
      // spread keeps the run around ~60 fat windows: several
      // milliseconds of spin work per barrier, so the pool amortizes its
      // wakeups even on modest CI hosts.
      {"fattree3",
       {.topology = net::TopologyConfig::fat_tree(3),
        .hosts = 1024,
        .frames_per_host = 32,
        .inject_spread = Time::micros(100),
        .link_latency = Time::micros(2),
        .switch_work = 1024},
       true},
  };
  Suite suite{"engine_scaling",
              {},
              {{"LPs", "lp_count"},
               {"windows", "windows"},
               {"cross posts", "cross_posts"}}};
  const std::size_t thread_counts[] = {1, 2, 4};
  for (const Grid& g : grid) {
    if (reduced && g.full_only) continue;
    for (std::size_t threads : thread_counts) {
      add_point(suite,
                std::string(g.label) + "/P=" + num(g.cfg.hosts) +
                    "/threads=" + num(threads),
                {{"topology", g.label},
                 {"P", num(g.cfg.hosts)},
                 {"frames_per_host", num(g.cfg.frames_per_host)},
                 {"switch_work", num(g.cfg.switch_work)},
                 {"threads", num(threads)}},
                [cfg = g.cfg, threads] {
                  return run_lp_scaling_point(cfg, threads);
                });
    }
  }
  // SimCluster points: the full device models (cards, DMA, switch
  // FIFOs) sharded across per-switch LPs — the migration the synthetic
  // LP workload above cannot see.  The full grid's 1024-host point is
  // the shape check_speedup_floor() re-measures.  Host counts must be
  // k^3/4 for an even k (fat_tree(3)): 16 reduced, 1024 full.
  const std::size_t hosts = reduced ? 16 : 1024;
  for (std::size_t threads : thread_counts) {
    add_point(suite,
              "cluster_fattree3/P=" + num(hosts) + "/threads=" + num(threads),
              {{"topology", "cluster_fattree3"},
               {"P", num(hosts)},
               {"threads", num(threads)}},
              [hosts, threads] {
                return run_cluster_scaling_point(hosts, threads);
              });
  }
  return suite;
}

}  // namespace acc::runner::suites
