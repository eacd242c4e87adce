// Synthetic LP-partitioned fabric traffic on the parallel event engine
// (sim/parallel.hpp), kept only as the fixture of bench/perf's
// `parallel.window_probe_us` probe (bench/perf/probes.cpp), which calls
// run_lp_workload with no per-hop work and reads `windows`.  Delete it
// with its three tests/parallel_scaling_test.cpp cases when that probe
// moves onto a SimCluster scenario; the parallel engine is measured and
// gated on SimCluster (the engine_scaling suite), not on this workload.
//
// Each switch of a TopologyPlan becomes one LP (net/lp_map.hpp); seeded
// per-host schedules inject frames that hop switch-to-switch along the
// plan's real next_port routes.  Every hop is an LP-local event — it
// reads the (immutable) plan, spins `switch_work` rounds of a
// deterministic forwarding-cost model and updates only its own LP's
// state — and reaching the next switch is a cross-LP post carrying the
// interior-link latency, i.e. exactly the lookahead the conservative
// windows run on.  It bypasses net::Fabric and every device model.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace acc::net {

struct LpWorkloadConfig {
  TopologyConfig topology{};
  std::size_t hosts = 64;
  /// Frames each host injects (seeded destinations, staggered starts).
  std::size_t frames_per_host = 32;
  /// Injection times are uniform over [0, inject_spread).
  Time inject_spread = Time::micros(200);
  /// Interior (switch-to-switch) one-way latency = the lookahead.
  Time link_latency = Time::micros(1);
  /// Same-LP service delay (edge-switch to attached host and back).
  Time forward_latency = Time::nanos(200);
  /// Rounds of the per-hop forwarding-cost spin (models table lookup +
  /// header rewrite work; keeps the workload compute-bound enough that
  /// window parallelism, not barrier overhead, dominates).
  std::uint32_t switch_work = 192;
  std::uint64_t seed = 1;
  /// Record per-LP trace lanes (small ring; the digest covers the full
  /// stream) so runs carry a thread-count-independent digest.
  bool trace = true;
};

struct LpWorkloadResult {
  std::uint64_t digest = 0;     // ParallelEngine::combined_digest()
  std::uint64_t events = 0;     // engine events executed (all shards)
  std::uint64_t delivered = 0;  // frames that reached their destination
  std::uint64_t hops = 0;       // switch traversals executed
  std::uint64_t checksum = 0;   // fold of every hop's spin output, LP order
  std::uint64_t windows = 0;    // conservative barriers crossed
  std::uint64_t cross_posts = 0;  // mailbox-carried events
  std::uint64_t trace_records = 0;  // records behind the digest, all lanes
  std::size_t lp_count = 0;
  Time sim_time = Time::zero();
};

/// Builds the topology, partitions it into LPs, runs the traffic on
/// `threads` workers and reports the run's invariants.  The result is a
/// pure function of `cfg`, independent of `threads` (the determinism
/// contract, docs/TRACING.md).
LpWorkloadResult run_lp_workload(const LpWorkloadConfig& cfg,
                                 std::size_t threads);

}  // namespace acc::net
