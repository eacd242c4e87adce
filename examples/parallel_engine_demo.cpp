// Parallel engine walkthrough and determinism probe: one seeded
// SimCluster workload on a multi-switch fabric at 1/2/4/8 engine worker
// threads (ClusterOptions::engine_threads).
//
// The cluster is a 16-host 3-level fat tree (20 switches) running a
// neighbour ring of INIC transfers, every rank spawned on its node's LP
// (SimCluster::node_lp).  At 1 thread the cluster runs on one LP; from 2
// threads up it runs per-switch, each switch with its attached hosts'
// cards, DMA engines and switch FIFOs on its own LP, frames crossing
// switches through the conservative windows' mailboxes.  The digest
// contract (docs/TRACING.md) the demo checks:
//   * every thread count >= 2 reproduces the 2-thread digest bit for bit;
//   * every thread count reproduces the 1-thread end time and merged
//     counter totals (the per-switch digest is a different constant from
//     the one-LP digest by design: per-lane frame ids).
//
//   $ ./parallel_engine_demo        # exits 1 on any divergence
//
// scripts/check_determinism.sh replays this binary under
// ACC_TRACE_DIGEST=1 in varied environments: the internal comparison is
// the thread-count half of the contract, the script's cross-process
// comparison of the digest lines the environment half.  Wall-clock
// throughput varies run to run, of course — only the digests are
// compared.
#include <chrono>
#include <cstdio>
#include <vector>

#include "apps/cluster.hpp"
#include "common/table.hpp"
#include "model/calibration.hpp"
#include "net/topology.hpp"
#include "sim/process.hpp"
#include "trace/counters.hpp"

using namespace acc;

namespace {

constexpr std::size_t kHosts = 16;
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

struct RingRun {
  std::uint64_t digest = 0;
  Time end = Time::zero();
  std::vector<trace::CounterSample> counters;
};

bool same_counters(const std::vector<trace::CounterSample>& a,
                   const std::vector<trace::CounterSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].category != b[i].category || a[i].node != b[i].node ||
        a[i].name != b[i].name || a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

/// Runs the ring at `threads` engine threads and adds its row to `table`.
RingRun run_ring(std::size_t threads, Table& table) {
  apps::ClusterOptions copts;
  copts.topology = net::TopologyConfig::fat_tree(3);
  copts.engine_threads = threads;
  apps::SimCluster cluster(kHosts, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  if (!cluster.tracer().enabled()) {
    cluster.enable_tracing(/*ring_capacity=*/64);
  }
  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t i = 0; i < kHosts; ++i) {
    const int src = static_cast<int>(i);
    const std::size_t dst = (i + 1) % kHosts;
    group.spawn_on(cluster.node_lp(i),
                   cluster.transfer(src, static_cast<int>(dst), Bytes::kib(16),
                                    i));
    group.spawn_on(cluster.node_lp(dst),
                   [](apps::SimCluster& c, std::size_t node) -> sim::Process {
                     (void)co_await c.inbox(node).recv();
                   }(cluster, dst));
  }
  const auto t0 = std::chrono::steady_clock::now();
  RingRun out;
  out.end = cluster.run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  group.join();
  out.digest = cluster.digest();
  out.counters = cluster.counters_snapshot();
  const sim::ParallelEngine& pe = *cluster.parallel();
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(out.digest));
  table.row()
      .add(static_cast<std::int64_t>(threads))
      .add(cluster.partition_reason())
      .add(static_cast<std::int64_t>(pe.lp_count()))
      .add(pe.windows())
      .add(pe.cross_posts())
      .add(cluster.events_executed())
      .add(secs > 0 ? static_cast<double>(cluster.events_executed()) / secs
                    : 0.0,
           0)
      .add(out.end.as_micros(), 1)
      .add(hex);
  return out;
}

}  // namespace

int main() {
  print_banner("SimCluster neighbour ring: 16-host fat_tree(3), INIC, per "
               "engine_threads");
  Table table({"engine_threads", "partition", "LPs", "windows",
               "cross posts", "events", "events/sec", "sim (us)", "digest"});
  std::vector<RingRun> runs;
  for (std::size_t threads : kThreadCounts) {
    runs.push_back(run_ring(threads, table));
  }
  table.print();

  const RingRun& serial = runs[0];
  const RingRun& sharded = runs[1];  // the 2-thread run
  int divergences = 0;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const bool ok = runs[i].digest == sharded.digest &&
                    runs[i].end == serial.end &&
                    same_counters(runs[i].counters, serial.counters);
    if (!ok) {
      ++divergences;
      std::fprintf(stderr,
                   "FAIL: engine_threads=%zu diverged from the 2-thread "
                   "digest or the 1-thread end time and counters\n",
                   kThreadCounts[i]);
    }
  }
  if (divergences == 0) {
    std::puts("every per-switch run reproduces the 2-thread digest, and "
              "every run the 1-thread end time and counters");
  }
  return divergences ? 1 : 0;
}
