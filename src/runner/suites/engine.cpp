// The engine_scaling suite, whose full-grid 1024-host shape
// check_speedup_floor() re-measures.  Bodies are untimed: the runner
// measures each point's wall clock, and derive_scaling_ratios() turns
// those into speedups.
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
    m.counters = {
        {"lp_count", i64(pe.lp_count())},
        {"windows", i64(pe.windows())},
        {"cross_posts", i64(pe.cross_posts())},
    };
  });
}

}  // namespace

/// The SimCluster neighbour ring on a fat_tree(3) cluster at 1, 2 and 4
/// worker threads, threads = 1 first: the full device models (cards,
/// DMA, switch FIFOs) on per-switch LPs from 2 threads up.  Host counts
/// must be k^3/4 for an even k: 16 reduced, 1024 full; the full grid's
/// point is the shape check_speedup_floor() re-measures.  Every point
/// reports its run digest, and derive_scaling_ratios() later gives each
/// threads > 1 point its speedup over the threads = 1 point and the
/// derived `scaling_efficiency` (BENCH_results.json v4).
Suite engine_scaling_suite(bool reduced) {
  Suite suite{"engine_scaling",
              {},
              {{"LPs", "lp_count"},
               {"windows", "windows"},
               {"cross posts", "cross_posts"}}};
  const std::size_t hosts = reduced ? 16 : 1024;
  const std::size_t thread_counts[] = {1, 2, 4};
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
