// Parallel sweep execution for independent simulator runs.
//
// Every figure and ablation in EXPERIMENTS.md is a sweep over
// (interconnect × P × problem size × seed), and each point is an
// independent single-threaded SimCluster run that is a pure function of
// its configuration (docs/TRACING.md).  SweepRunner exploits exactly
// that: a fixed-size thread pool pulls named RunPoints off a work queue
// and executes them concurrently, while the aggregated results keep the
// *submission* order — so output (tables, BENCH_results.json, digests)
// is byte-identical no matter how the pool interleaved the work.
//
// The contract a RunPoint body must honour is the simulator's own
// determinism contract plus thread-confinement: everything the body
// touches is either owned by the run (its SimCluster / Engine / Tracer)
// or immutable process-wide state (default_calibration(), the captured
// trace environment in apps/cluster.cpp).  tests/runner_test.cpp pins
// this down by asserting serial and pooled executions of the same
// points produce identical digests and counters, and CI runs that test
// under ThreadSanitizer (ACC_SANITIZE=thread).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace acc::runner {

/// Tail-latency summary of a serving-style point (schema-v3 `latency`
/// object in BENCH_results.json).  All fields come from the run's
/// trace::LatencyHistogram, so they are as deterministic as the digest;
/// `present` gates emission (batch workloads have no request latencies).
struct LatencySummary {
  bool present = false;
  std::uint64_t count = 0;     // completed requests behind the percentiles
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  std::uint64_t mean_ns = 0;
  std::uint64_t max_ns = 0;
  std::int64_t goodput_bytes_per_sec = 0;  // response payload / makespan
};

/// Per-LP-shard execution stats a parallel-engine point reports back
/// (sim::ParallelEngine::shard_stats()).  `wall_ns` is the shard's busy
/// time summed over windows, not the run's elapsed time: it leaves out
/// the window barriers, so RunRecord::events_per_sec() never uses it.
struct ShardSummary {
  std::uint64_t events = 0;
  std::uint64_t wall_ns = 0;
};

/// What one executed point reports back.  `sim_time` is simulated time;
/// wall clock is measured by the runner, not the body.  `digest` is the
/// run's trace digest when the body enabled tracing (0 otherwise), and
/// `counters` an optional flat snapshot of the run's counter registry —
/// both exist so a pooled run can be checked bit-for-bit against a
/// serial run of the same point.
struct RunMetrics {
  Time sim_time = Time::zero();
  double speedup = 0.0;            // vs the suite's serial baseline; 0 = n/a
  std::uint64_t digest = 0;        // trace digest (0 when untraced)
  std::uint64_t trace_records = 0; // records behind the digest
  std::uint64_t events = 0;        // engine events executed
  /// Engine worker threads this point ran with (1 = classic serial
  /// dispatch).  Reported into BENCH_results.json v4 when > 1.
  std::size_t threads = 1;
  /// Parallel scaling quality: speedup over the same point's 1-thread
  /// run divided by `threads` (1.0 = perfect linear scaling; 0 = not a
  /// scaling point).  Emitted into BENCH_results.json v4 when set.
  double scaling_efficiency = 0.0;
  /// Per-LP-shard stats when the point ran on the parallel engine
  /// (empty for serial runs).  Telemetry only: emitted into the JSON,
  /// never used by events_per_sec().
  std::vector<ShardSummary> shards;
  /// (name, value) pairs in a body-chosen, deterministic order; used for
  /// extra table columns and the serial-vs-pooled counter comparison.
  std::vector<std::pair<std::string, std::int64_t>> counters;
  /// Request-latency distribution summary; emitted only when present.
  LatencySummary latency;

  /// The value of counter `name`, 0 when the body did not set it.
  std::int64_t counter(const std::string& name) const {
    for (const auto& [key, value] : counters) {
      if (key == name) return value;
    }
    return 0;
  }
};

/// One named unit of work in a sweep.  `params` is ordered (it becomes
/// the JSON "params" object verbatim); `name` must be unique within its
/// suite since suite/name addresses the point in BENCH_results.json.
struct RunPoint {
  std::string suite;
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
  std::function<RunMetrics()> body;
};

/// A completed point: its identity, its metrics, and how the execution
/// went.  `wall_ns` is the body's wall-clock time as measured around the
/// call, nanosecond resolution (`wall_ms` is the same measurement for
/// human tables); together with `metrics.events` it yields the host-perf
/// trajectory (events/sec) BENCH_results.json v2 records per point.
/// Wall-clock fields are informational only — they never feed a digest.
struct RunRecord {
  std::string suite;
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
  RunMetrics metrics;
  double wall_ms = 0.0;
  std::uint64_t wall_ns = 0;
  bool ok = false;
  std::string error;  // what() of the escaped exception when !ok

  /// Host events/sec this point achieved (0 when unmeasurable: a failed
  /// point, an untimed record, or a body that executed no events).
  ///
  /// Always metrics.events ÷ the record's own wall_ns, serial and
  /// parallel-engine points alike.  Shard busy times leave out the window
  /// barriers, where a sharded run can spend most of its wall clock, so
  /// they are telemetry (metrics.shards), never the denominator.
  double events_per_sec() const {
    if (!ok || wall_ns == 0 || metrics.events == 0) return 0.0;
    return static_cast<double>(metrics.events) * 1e9 /
           static_cast<double>(wall_ns);
  }
};

class SweepRunner {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  /// 1 executes inline on the calling thread (no pool), which is the
  /// reference ordering the pooled mode must reproduce.
  explicit SweepRunner(std::size_t threads = 0);

  std::size_t threads() const { return threads_; }

  /// Executes every point and returns results in submission order:
  /// result[i] always corresponds to points[i], regardless of which
  /// pool thread finished first.  A body that throws marks its record
  /// !ok and carries the message; it never aborts the sweep.
  std::vector<RunRecord> run(const std::vector<RunPoint>& points) const;

  /// Total wall-clock milliseconds of the last run() (the sweep, not
  /// the sum of its points — the ratio sum/total is the pool speedup).
  double last_sweep_wall_ms() const { return last_wall_ms_; }

 private:
  std::size_t threads_ = 1;
  mutable double last_wall_ms_ = 0.0;
};

}  // namespace acc::runner
