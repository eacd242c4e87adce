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
//
// The golden point tables (bench/golden.json for the reduced grid,
// bench/golden_full.json for the full grid; schema acc-bench-golden/v2)
// pin the deterministic fields of every point of one sweep: `digest`,
// `sim_ms` (exact, from integer nanoseconds), `events`, `trace_records`
// and the body's `counters` in order (v2; v1 tables had no counters).
// They hold no wall-clock field, so a checked-in table turns "no digest
// or table column moved" into a check any build can run:
//
//   {
//     "schema": "acc-bench-golden/v2",
//     "compiler": "gcc 12.2.0",
//     "points": [
//       {"point": "<suite>/<name>", "digest": "<hex>", "sim_ms": 1.234567,
//        "events": 62, "trace_records": 71, "counters": {"comm_ns": 812}},
//       ...
//     ]
//   }
//
// One point per line, in sweep order, so a re-pin is a readable diff.
#pragma once

#include <cstdio>
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

/// The compiler this binary was built with ("gcc 12.2.0", "clang ...").
/// The golden table records it: libm and codegen differences can move
/// floating-point results (the FFT), and a mismatch under a different
/// toolchain must say so instead of looking like a regression.
std::string compiler_id();

/// Writes the golden table for `results` (every point must be ok).
void write_golden_json(std::ostream& os, const std::vector<RunRecord>& results);

/// Checks `results` against a golden table read from `is`.  Every run
/// point must be in the table with identical fields and counters, and
/// every table point of a suite the run covered must have been run.
/// Prints the first difference (point, field or counter, both values)
/// to `err` and returns 1;
/// returns 0 when everything matches, 2 when the table is unreadable.
int check_golden(std::istream& is, const std::vector<RunRecord>& results,
                 std::FILE* err);

}  // namespace acc::runner
