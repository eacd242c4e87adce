// Parallel engine walkthrough and determinism probe: the same seeded
// workloads at 1/2/4/8 worker threads, with the digests compared
// bit-for-bit (docs/TRACING.md: same seed => same digest for ANY thread
// count).
//
//   1. The LP-partitioned fabric workload (net/lp_workload.hpp) on a
//      64-host 2-level fat tree — real multi-LP window execution with
//      cross-LP mailbox traffic — printing per-thread-count digests,
//      event counts, and host throughput.
//   2. A star SimCluster (ClusterOptions::engine_threads) driving a
//      neighbour-ring of INIC transfers through SimCluster::run() — one
//      switch is a one-LP partition at every thread count.
//
//   $ ./parallel_engine_demo        # exits 1 on any digest divergence
//
// scripts/check_determinism.sh replays this binary under
// ACC_TRACE_DIGEST=1 in varied environments: the internal 1-vs-N
// comparison is the thread-count half of the contract, the script's
// cross-process comparison the environment half.  Wall-clock throughput
// varies run to run, of course — only the digest lines are compared.
#include <chrono>
#include <cstdio>
#include <vector>

#include "apps/cluster.hpp"
#include "common/table.hpp"
#include "model/calibration.hpp"
#include "net/lp_workload.hpp"
#include "net/topology.hpp"
#include "sim/process.hpp"

using namespace acc;

namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

int run_lp_fabric_probe() {
  net::LpWorkloadConfig cfg;
  cfg.topology = net::TopologyConfig::fat_tree(2);
  cfg.hosts = 64;
  cfg.frames_per_host = 32;
  cfg.switch_work = 256;

  print_banner("LP fabric workload: 64-host fat tree, 16 switch LPs");
  Table table({"threads", "LPs", "windows", "cross posts", "events",
               "events/sec", "digest"});
  std::uint64_t reference = 0;
  int divergences = 0;
  for (std::size_t threads : kThreadCounts) {
    const auto t0 = std::chrono::steady_clock::now();
    const net::LpWorkloadResult r = net::run_lp_workload(cfg, threads);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (threads == 1) reference = r.digest;
    if (r.digest != reference) ++divergences;
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.digest));
    table.row()
        .add(static_cast<std::int64_t>(threads))
        .add(static_cast<std::int64_t>(r.lp_count))
        .add(static_cast<std::int64_t>(r.windows))
        .add(static_cast<std::int64_t>(r.cross_posts))
        .add(static_cast<std::int64_t>(r.events))
        .add(secs > 0 ? static_cast<double>(r.events) / secs : 0.0, 0)
        .add(digest);
    // Mirror the SimCluster ACC_TRACE_DIGEST hook for the determinism
    // script: one digest line per run on stderr, only when asked.
    if (apps::trace_env().trace_digest) {
      std::fprintf(stderr, "acc-trace-digest %s\n", digest);
    }
  }
  table.print();
  if (divergences) {
    std::fprintf(stderr,
                 "FAIL: %d thread count(s) diverged from the 1-thread "
                 "digest\n",
                 divergences);
  } else {
    std::puts("all thread counts reproduce the 1-thread digest");
  }
  return divergences ? 1 : 0;
}

int run_cluster_probe() {
  print_banner(
      "SimCluster one-LP star: 8-node INIC ring via ClusterOptions::"
      "engine_threads");
  Table table({"engine_threads", "events", "sim (us)", "digest"});
  std::uint64_t reference = 0;
  int divergences = 0;
  for (std::size_t threads : kThreadCounts) {
    apps::ClusterOptions copts;
    copts.engine_threads = threads;
    apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), copts);
    if (!cluster.tracer().enabled()) {
      cluster.enable_tracing(/*ring_capacity=*/64);
    }
    sim::ProcessGroup group(*cluster.parallel());
    for (int i = 0; i < 8; ++i) {
      const int dst = (i + 1) % 8;
      group.spawn(cluster.transfer(i, dst, Bytes::kib(16),
                                   static_cast<std::uint64_t>(i)));
      group.spawn([](apps::SimCluster& c, int node) -> sim::Process {
        (void)co_await c.inbox(static_cast<std::size_t>(node)).recv();
      }(cluster, dst));
    }
    const Time end = cluster.run();
    group.join();
    const std::uint64_t digest = cluster.digest();
    if (threads == 1) reference = digest;
    if (digest != reference) ++divergences;
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    table.row()
        .add(static_cast<std::int64_t>(threads))
        .add(static_cast<std::int64_t>(cluster.events_executed()))
        .add(end.as_micros(), 1)
        .add(hex);
  }
  table.print();
  if (divergences) {
    std::fprintf(stderr,
                 "FAIL: %d engine_threads value(s) changed the cluster "
                 "digest\n",
                 divergences);
  } else {
    std::puts("engine_threads never changes a cluster run");
  }
  return divergences ? 1 : 0;
}

}  // namespace

int main() {
  const int lp = run_lp_fabric_probe();
  const int cluster = run_cluster_probe();
  return (lp || cluster) ? 1 : 0;
}
