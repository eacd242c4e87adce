// Machine-readable benchmark output: BENCH_results.json.
//
// Schema (docs/BENCHMARKS.md is the authoritative description):
//
//   {
//     "schema": "acc-bench-results/v4",
//     "point_set": "full" | "reduced",
//     "threads": <pool size>,
//     "sweep_wall_ms": <whole-sweep wall clock>,
//     "suites": {
//       "<suite>": {
//         "points": {
//           "<point name>": {
//             "params":  { "<key>": "<value>", ... },
//             "sim_ms":  <simulated time, ms>,
//             "speedup": <vs serial baseline; omitted when n/a>,
//             "digest":  "<16-hex-digit trace digest>",
//             "wall_ms": <point wall clock, ms>,
//             "wall_ns": <same measurement, integer nanoseconds>,
//             "events":  <engine events executed>,
//             "events_per_sec": <host dispatch throughput, events/wall>,
//             "threads": <engine worker threads; omitted when 1>,
//             "scaling_efficiency": <speedup over the point's 1-thread
//                                    run ÷ threads; omitted when n/a>,
//             "latency": {                  // serving points only
//               "count":   <completed requests>,
//               "p50_ns":  <nearest-rank percentile, ns>,
//               "p99_ns":  <...>, "p999_ns": <...>,
//               "mean_ns": <...>, "max_ns": <...>,
//               "goodput_bytes_per_sec": <response payload / makespan>
//             },
//             "counters": { "<name>": <int64>, ... }   // body-chosen;
//                                     // omitted when the body set none
//           }, ...
//         }
//       }, ...
//     }
//   }
//
// v2 added the host-perf fields (wall_ns, events_per_sec) so every sweep
// leaves a wall-clock trajectory to regress engine throughput against,
// not just simulated times.  v3 adds the optional per-point `latency`
// object (tail percentiles + goodput from the deterministic
// trace::LatencyHistogram of serving-style points) and pins down that
// non-finite floating-point values serialize as `null`, never inf/nan
// (which are not JSON).  v4 adds the optional parallel-engine fields
// `threads` and `scaling_efficiency` (sim/parallel.hpp window scheduler;
// events_per_sec stays events over the point's own wall_ns at every
// thread count — see runner::RunRecord::events_per_sec()); points that
// ran serially emit byte-identical objects to v3.  Digests are hex
// *strings* because a 64-bit value does not survive a round-trip
// through JSON numbers.  Suites,
// points, and params keep the submission order of the sweep, which
// SweepRunner guarantees is deterministic — so two runs of the same
// point set produce byte-identical files apart from the wall-clock
// fields.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace acc::runner {

struct BenchJsonMeta {
  std::string point_set = "full";
  std::size_t threads = 1;
  double sweep_wall_ms = 0.0;
};

/// Serializes sweep results grouped by suite (submission order).  Failed
/// points are emitted with an "error" field instead of metrics so a
/// trajectory never silently loses a point.
void write_bench_json(std::ostream& os, const std::vector<RunRecord>& results,
                      const BenchJsonMeta& meta);

/// 16-hex-digit lowercase rendering used for the "digest" field.
std::string digest_hex(std::uint64_t digest);

}  // namespace acc::runner
