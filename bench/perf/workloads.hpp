// The benchmark's four workloads and its per-layer probes.
//
// Every workload is a fixed list of SimCluster runs issued one after
// another (closed-loop batch: the next run starts when the previous one
// returns).  One call of Workload::rep executes the whole list once and
// reports, per run, the host time spent constructing the cluster and
// arming faults (set-up) and in the app or run() call, plus the deterministic
// outputs the determinism gate compares across reps.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/parallel.hpp"
#include "spans.hpp"
#include "trace/latency.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RepConfig {
  std::uint64_t seed = 1;
  bool smoke = false;            // ~1/20 of the normal size
  bool traced = false;           // in-program tracing on (digests, records)
  std::size_t engine_threads = 1;  // SimCluster engine threads
  Spans* spans = nullptr;        // benchmark spans (traced rep only)
};

/// One cluster run's outcome.
struct RunResult {
  std::string label;
  bool ok = true;
  std::string error;
  double ctor_s = 0.0;   // SimCluster construction
  double arm_s = 0.0;    // FaultInjector construction (arming)
  double drive_s = 0.0;  // driver / run() calls
  std::int64_t sim_ns = 0;
  /// Deterministic per-layer tallies (counts, bytes, simulated ns).
  std::map<std::string, double> counts;
  bool has_latency = false;
  acc::trace::LatencyHistogram latency;
  std::uint64_t digest = 0;         // traced runs only
  std::uint64_t trace_records = 0;  // traced runs only
  /// Sharded runs: per-LP busy time of the run's windows.
  std::vector<acc::sim::ParallelEngine::ShardStats> shards;
};

struct Workload {
  const char* name;
  std::size_t engine_threads;  // host threads the simulation uses
  std::vector<RunResult> (*rep)(const RepConfig&);
};

/// The four workloads, in the order the benchmark runs them.
const std::vector<Workload>& workloads();

/// Per-layer probes: each times calls into one module's public API on a
/// fixed shape and reports name -> value (units documented in README.md).
std::map<std::string, double> run_probes(std::uint64_t seed, bool smoke,
                                         Spans* spans);

}  // namespace perf
