// Machine-readable benchmark output: BENCH_results.json (schema
// acc-bench-results/v4; docs/BENCHMARKS.md is the authoritative
// description).  It groups the points by suite; each point has its
// params, sim_ms, speedup (omitted when n/a), digest, wall_ms, wall_ns,
// events and events_per_sec, the parallel-engine fields threads and
// scaling_efficiency (omitted for serial points), a latency object
// (serving points only) and its counters (omitted when none).  A failed
// point carries an "error" instead of metrics.
//
// docs/BENCHMARKS.md gives the version history (v2 the host-perf
// fields, v3 the latency object and `null` for non-finite numbers, v4
// the parallel-engine fields).  Digests are hex *strings* because a
// 64-bit value does not survive a round-trip through JSON numbers.
// Suites, points and params keep the sweep's submission order, so two
// runs of one point set give byte-identical files apart from the
// wall-clock fields.
//
// The golden point tables (bench/golden.json for the reduced grid,
// bench/golden_full.json for the full grid) pin every point's
// deterministic fields, each object's entries in order, and no
// wall-clock field, so "no digest, table column or param moved" is a
// check any build can run.  One point per line, in sweep order, so a
// re-pin is a readable diff:
//
//   {
//     "schema": "acc-bench-golden/v3",
//     "compiler": "gcc 12.2.0",
//     "points": [
//       {"point": "<suite>/<name>", "digest": "<hex>", "sim_ms": 1.234567,
//        "events": 62, "trace_records": 71, "counters": {"comm_ns": 812},
//        "params": {"P": "4"}},
//       ...
//     ]
//   }
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
/// point must be in the table with identical params, fields and
/// counters, and every table point of a suite the run covered must have
/// been run.  Prints the first difference (point, param, field or
/// counter, both values) to `err` and returns 1;
/// returns 0 when everything matches, 2 when the table is unreadable.
int check_golden(std::istream& is, const std::vector<RunRecord>& results,
                 std::FILE* err);

}  // namespace acc::runner
