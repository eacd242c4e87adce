// The unified benchmark point set: every simulated figure/ablation sweep
// from EXPERIMENTS.md re-expressed as runner::RunPoints, so one driver
// (bench/bench_all) can execute them — serially or across a thread pool —
// and emit a machine-readable BENCH_results.json trajectory.
//
// Each point runs a fresh SimCluster with tracing enabled (small ring;
// the digest covers the full stream), so every point carries the run
// digest that CI compares between pooled and serial execution.  Serial
// speedup baselines come from core::serial_*_total, which memoizes one
// serial run per problem size process-wide (thread-safe).
//
// Suites mirror the standalone bench binaries they subsume (analytic
// closed-form columns stay with those binaries — they are free to
// compute and carry no digest):
//   fig8a_fft_sim          FFT speedup, 3 interconnects × 2 sizes × P
//   fig8b_sort_sim         sort speedup, 3 interconnects × P
//   fig4b_transpose        transpose decomposition vs partition (GigE)
//   fig5a_sort_components  sort component times (GigE)
//   ablation_packet_size   INIC packet-size sweep (sort)
//   ablation_dma_threshold card-to-host DMA threshold sweep (sort)
//   fig_scaling_topology   collectives over multi-hop fabrics, P to 1024
#pragma once

#include <vector>

#include "net/lp_workload.hpp"
#include "runner/sweep.hpp"

namespace acc::runner {

/// Builds the full sweep (`reduced` = false: the exact point grid the
/// EXPERIMENTS.md tables plot) or a reduced CI-sized grid (smaller
/// problems, P <= 4 for the figure suites, P <= 256 for the topology
/// scaling suite) that exercises every suite in seconds.
std::vector<RunPoint> figure_sweep_points(bool reduced);

/// The fig_scaling_topology suite on its own: barrier + topology-aware
/// broadcast/reduce over star, fat-tree and torus fabrics
/// (docs/NETWORK.md), recording per-link congestion summaries.  Reduced
/// keeps P <= 256; full adds the 1024-node fat-tree and torus points.
/// Included in figure_sweep_points; exposed separately so the
/// bench/fig_scaling_topology driver can run just this grid.
std::vector<RunPoint> topology_scaling_points(bool reduced);

/// The collectives suite on its own: backend (host/TCP vs NIC-resident)
/// × topology × rank-count grid, barrier + topology-aware allreduce per
/// point.  Counters expose the host-cost split the NIC engine is meant
/// to eliminate — traced CPU/IRQ event counts, interrupts delivered,
/// summed host CPU nanoseconds — plus the trigger-fire tally on the
/// card plane.  Included in figure_sweep_points; exposed separately so
/// the bench/collectives_compare driver can run just this grid.
std::vector<RunPoint> collective_points(bool reduced);

/// The failover-recovery suite on its own: permanent interior-link cuts
/// (single and double) against live collectives on multi-hop fabrics
/// with adaptive routing on and the degraded TCP fallback OFF, per
/// backend.  Each point reports the recovery latency (first cut to the
/// fabric's re-convergence instant), post-failover goodput of a bulk
/// transfer over the re-converged route, and the route-epoch /
/// reroute-grant tallies; a point throws (runner marks it failed) if a
/// collective fails verification or any card writes a peer off.
/// Included in figure_sweep_points; exposed separately for the
/// bench/failover_recovery driver.
std::vector<RunPoint> failover_points(bool reduced);

/// The chaos-recovery suite: the scripted fault storms of
/// bench/chaos_recovery (bursty loss, corruption, link flap, card
/// reset, degraded port, all-at-once) against verified FFT and sort
/// runs on a hardened INIC cluster.  Counters carry the clean-vs-
/// faulted timelines and the recovery machinery's visible work
/// (fallback transfers, retransmits, CRC drops).  Included in
/// figure_sweep_points; exposed separately for the bench/chaos_recovery
/// driver.
std::vector<RunPoint> chaos_recovery_points(bool reduced);

/// The serving suite: the open-loop Zipf-skewed KV workload
/// (apps/kv_app.hpp) over a (plane × topology × arrival rate × chaos)
/// grid — host TCP vs hardened INIC, clean fabric vs sustained ~30%
/// bursty loss.  Every point fills RunMetrics::latency (the schema-v3
/// `latency` object: nearest-rank p50/p99/p999, mean, max, goodput) from
/// the run's deterministic latency histogram, and mirrors the tail into
/// counters for the serial-vs-pooled comparison.  A point throws if any
/// response carries a wrong value or a request goes unanswered.
/// Included in figure_sweep_points; exposed separately for the
/// bench/serving_tail driver.
std::vector<RunPoint> serving_points(bool reduced);

/// The engine-scaling suite: LP-partitioned fabric traffic
/// (net/lp_workload.hpp) on the parallel event engine at 1/2/4 worker
/// threads.  Each point reports the thread-count-independent run digest
/// and per-shard stats; threads > 1 points additionally report speedup
/// over the wall clock of the shape's threads=1 point (listed first, so
/// no point's timed body runs a second simulation) and the derived
/// `scaling_efficiency` (BENCH_results.json v4).  The full grid's
/// 1024-host fat-tree point carries the CI speedup floor enforced by
/// bench/engine_scaling --check-floor.  Included in figure_sweep_points;
/// exposed separately for the bench/engine_scaling driver.
std::vector<RunPoint> engine_scaling_points(bool reduced);

/// The CI speedup-floor shape: the full engine_scaling grid's 1024-host
/// fat-tree workload.  bench/engine_scaling --check-floor re-measures
/// exactly this config, so the gate and the grid cannot drift apart.
net::LpWorkloadConfig engine_scaling_floor_config();

/// One SimCluster engine-scaling run: a neighbour-ring INIC transfer
/// workload on a fat-tree cluster with the full device models (cards,
/// DMA, switch FIFOs) sharded across per-switch LPs when threads >= 2.
/// Digest semantics follow docs/TRACING.md: threads <= 1 reports the
/// historical serial digest; any threads >= 2 report one common sharded
/// digest (per-lane frame ids), so floor checks compare wall clock
/// 1-vs-4 but digests only among sharded runs.
struct ClusterScalingRun {
  Time sim_time = Time::zero();
  std::uint64_t digest = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t events = 0;
  std::size_t lp_count = 1;
  std::uint64_t windows = 0;
  std::uint64_t cross_posts = 0;
  std::vector<ShardSummary> shards;  // empty for serial runs
};
ClusterScalingRun run_cluster_scaling_point(std::size_t hosts,
                                            std::size_t threads);

/// The SimCluster half of the CI speedup floor: hosts for the pinned
/// 1024-host fat-tree cluster shape bench/engine_scaling re-measures.
constexpr std::size_t kClusterScalingFloorHosts = 1024;

}  // namespace acc::runner
