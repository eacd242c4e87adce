// The benchmark suite registry: every simulated figure, ablation and
// system sweep from EXPERIMENTS.md re-expressed as runner::RunPoints, so
// one driver (bench/bench_all) executes them — serially or across a
// thread pool — and emits a machine-readable BENCH_results.json
// trajectory.
//
// Each point runs a fresh simulation with tracing enabled (small ring;
// the digest covers the full stream), so every point carries the run
// digest that CI compares between pooled and serial execution.  Serial
// speedup baselines are the closed-form apps::run_serial_* totals.
//
// A Suite is data: its points, the counters its table shows beside the
// common columns, and an optional gate the driver runs over the suite's
// results.  The registry, in sweep order:
//   fig8a_fft_sim          FFT speedup, 3 interconnects × 2 sizes × P,
//                          beside the Fig. 4(a) analytic INIC speedup
//   fig8b_sort_sim         sort speedup, 3 interconnects × P, beside the
//                          Fig. 5(b) analytic INIC speedup
//   fig4b_transpose        transpose decomposition vs partition (GigE)
//   fig5a_sort_components  sort component times (GigE)
//   ablation_packet_size   INIC packet-size sweep (sort)
//   ablation_dma_threshold card-to-host DMA threshold sweep (sort)
//   ablation_interrupt_coalescing  GigE FFT per interrupt-mitigation policy
//   ablation_key_distribution      INIC sort, key skew × sampled splitters
//   ablation_rc_placement  host CPU vs PCI RC card vs INIC transform
//   ablation_derived_datatypes     host pack + TCP vs INIC in-stream gather
//   netpipe_pingpong       point-to-point latency/goodput, TCP vs INIC
//   ablation_compute_accelerator   stream slowdown under FPGA offloads
//   fig_scaling_topology   collectives over multi-hop fabrics, P to 1024
//   collectives            host/TCP vs NIC-resident collective backend;
//                          gate: the NIC backend costs the host less
//   failover_recovery      permanent link cuts under adaptive routing;
//                          gate: every cut re-converges, bulk data moves
//   chaos_recovery         scripted fault storms vs verified FFT/sort
//   serving_tail           open-loop KV tail latency, host vs NIC plane;
//                          gate: the NIC plane holds the better p99
//   engine_scaling         parallel engine at 1/2/4 worker threads
// The figure, ablation and extension suites are the only source of
// those simulated tables (`bench_all --suite=X --points=full`); their
// columns carry the closed-form terms each figure plots beside the
// simulation.  A row that compares several simulations records each
// run's time, and each ratio in parts per million, as counters.
#pragma once

#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace acc::runner {

/// One extra table column: counter `counter` printed as
/// value × `scale` with `decimals` places.
struct Column {
  std::string header;
  std::string counter;
  double scale = 1.0;
  int decimals = 0;
};

/// A suite's acceptance check over its own (submission-ordered) results.
/// Prints one line per violation and a pass line when there are none;
/// returns the violation count.  Failed points are skipped — the driver
/// already counts them.
using Gate = int (*)(const std::vector<RunRecord>& records);

struct Suite {
  std::string name;
  std::vector<RunPoint> points;  // every point's `suite` equals `name`
  std::vector<Column> columns;
  Gate gate = nullptr;  // null: the suite has no acceptance check
};

/// Builds every suite (`reduced` = false: the exact point grid the
/// EXPERIMENTS.md tables plot) or a reduced CI-sized grid (smaller
/// problems, P <= 4 for the figure suites, P <= 256 for the topology
/// scaling suite) that exercises every suite in seconds.  Suites and
/// their points come back in sweep order.
std::vector<Suite> bench_suites(bool reduced);

/// The parallel engine's CI speedup floor: the full engine_scaling
/// grid's 1024-host fat-tree shapes (the synthetic LP workload, then the
/// SimCluster with full device models) re-measured back-to-back at 1 and
/// 4 threads; each must reach 1.6x within three attempts.  Prints
/// SKIPPED and returns 0 on hosts with fewer than 4 cores.  Returns the
/// number of floors missed, or 1 at once if the runs' digests diverge
/// (a determinism bug, not a perf issue).
int check_speedup_floor();

}  // namespace acc::runner
