// Unified benchmark driver: executes every simulated figure, ablation
// and system suite (src/runner/bench_points.hpp) through the parallel
// SweepRunner, prints one table per suite, runs each suite's gate, and
// emits a machine-readable BENCH_results.json trajectory (schema:
// docs/BENCHMARKS.md).
//
// Usage:
//   bench_all [--threads=N] [--points=full|reduced] [--suite=NAME]
//             [--out=PATH] [--list] [--check-floor]
//             [--check-golden=FILE] [--write-golden=FILE]
//
//   --threads=N       pool size (default: hardware concurrency; 1 = the
//                     serial reference execution)
//   --points=reduced  CI-sized grid — every suite, small problems
//   --suite=NAME      run only the points of one suite (exact match,
//                     e.g. fig_scaling_topology)
//   --out=PATH        JSON output path (default BENCH_results.json;
//                     "-" suppresses the file)
//   --list            print the point set and exit
//   --check-floor     after the sweep, re-measure the parallel engine's
//                     1024-host SimCluster shape at 1 vs 4 threads and
//                     fail unless it reaches 1.6x
//                     (runner::check_speedup_floor)
//   --check-golden=FILE  fail (exit 1) on the first point whose params,
//                     digest, sim_ms, events, trace_records or counters
//                     differ from the golden table (bench/golden.json
//                     for the reduced grid, bench/golden_full.json for
//                     the full one), printing both values.  The
//                     tables hold serial values, so on a pooled sweep
//                     this is also the concurrent-isolation gate
//   --write-golden=FILE  re-pin the golden table from this sweep
//
// The gates registered with the swept suites (host cost, NIC p99,
// failover recovery) always run; a violation fails the run (exit 1).
// Engine-scaling speedups are derived from the points' wall clocks once
// the sweep is done (runner::derive_scaling_ratios).
// Every point is digest-deterministic, so the JSON (wall-clock fields
// aside) is byte-identical across runs and thread counts.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "runner/bench_json.hpp"
#include "runner/bench_points.hpp"
#include "runner/sweep.hpp"

using namespace acc;

namespace {

struct Options {
  std::size_t threads = 0;  // 0 = hardware concurrency
  bool reduced = false;
  bool check_floor = false;
  bool list = false;
  std::string suite;  // empty = every suite
  std::string out = "BENCH_results.json";
  std::string check_golden;  // golden table to compare against
  std::string write_golden;  // golden table to (re)write
};

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      const std::string value = arg.substr(10);
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, opts.threads);
      if (value.empty() || ec != std::errc() || ptr != end) {
        std::fprintf(stderr,
                     "invalid --threads value: %s (expected a non-negative "
                     "integer)\n",
                     value.c_str());
        return false;
      }
    } else if (arg == "--points=reduced") {
      opts.reduced = true;
    } else if (arg == "--points=full") {
      opts.reduced = false;
    } else if (arg.rfind("--suite=", 0) == 0) {
      opts.suite = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      opts.out = arg.substr(6);
    } else if (arg == "--check-floor") {
      opts.check_floor = true;
    } else if (arg.rfind("--check-golden=", 0) == 0) {
      opts.check_golden = arg.substr(15);
    } else if (arg.rfind("--write-golden=", 0) == 0) {
      opts.write_golden = arg.substr(15);
    } else if (arg == "--list") {
      opts.list = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// One table per suite: the common columns, then the suite's own.
void print_suite_table(const runner::Suite& suite,
                       const std::vector<runner::RunRecord>& records) {
  print_banner(suite.name);
  std::vector<std::string> headers = {"point",  "sim (ms)",  "speedup",
                                      "digest", "wall (ms)", "Mev/s"};
  for (const auto& c : suite.columns) headers.push_back(c.header);
  Table table(headers);
  for (const auto& r : records) {
    table.row().add(r.name);
    if (!r.ok) {
      table.add("ERROR: " + r.error).skip().skip();
    } else {
      table.add(r.metrics.sim_time.as_millis(), 2);
      if (r.metrics.speedup != 0.0) {
        table.add(r.metrics.speedup, 2);
      } else {
        table.skip();
      }
      table.add(runner::digest_hex(r.metrics.digest));
    }
    table.add(r.wall_ms, 1);
    if (r.events_per_sec() > 0.0) {
      table.add(r.events_per_sec() / 1e6, 2);
    } else {
      table.skip();
    }
    for (const auto& c : suite.columns) {
      if (r.ok) {
        table.add(static_cast<double>(r.metrics.counter(c.counter)) * c.scale,
                  c.decimals);
      } else {
        table.skip();
      }
    }
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;

  auto suites = runner::bench_suites(opts.reduced);
  if (!opts.suite.empty()) {
    std::erase_if(suites, [&](const runner::Suite& s) {
      return s.name != opts.suite;
    });
    if (suites.empty()) {
      std::fprintf(stderr, "no points in suite %s\n", opts.suite.c_str());
      return 2;
    }
  }
  std::vector<runner::RunPoint> points;
  for (const auto& s : suites) {
    points.insert(points.end(), s.points.begin(), s.points.end());
  }
  if (opts.list) {
    for (const auto& p : points) {
      std::printf("%s/%s\n", p.suite.c_str(), p.name.c_str());
    }
    return 0;
  }

  runner::SweepRunner pool(opts.threads);
  print_banner("bench_all: " + std::to_string(points.size()) + " points (" +
               std::string(opts.reduced ? "reduced" : "full") + ") on " +
               std::to_string(pool.threads()) + " threads");
  auto results = pool.run(points);
  runner::derive_scaling_ratios(results);

  // Each suite's records, in submission order (results[i] is points[i]).
  std::vector<std::vector<runner::RunRecord>> by_suite;
  std::size_t next = 0;
  for (const auto& s : suites) {
    by_suite.emplace_back(results.begin() + next,
                          results.begin() + next + s.points.size());
    next += s.points.size();
  }
  for (std::size_t i = 0; i < suites.size(); ++i) {
    print_suite_table(suites[i], by_suite[i]);
  }

  int failed = 0;
  double points_wall_ms = 0.0;
  std::uint64_t total_events = 0;
  std::uint64_t total_event_ns = 0;
  for (const auto& r : results) {
    points_wall_ms += r.wall_ms;
    total_events += r.metrics.events;
    total_event_ns += r.wall_ns;
    if (!r.ok) {
      ++failed;
      std::fprintf(stderr, "FAILED %s/%s: %s\n", r.suite.c_str(),
                   r.name.c_str(), r.error.c_str());
    }
  }
  const double sweep_wall_ms = pool.last_sweep_wall_ms();
  std::printf(
      "\nsweep: %zu points, %.0f ms wall (sum of points %.0f ms, pool "
      "speedup %.2fx on %zu threads)\n",
      results.size(), sweep_wall_ms, points_wall_ms,
      sweep_wall_ms > 0 ? points_wall_ms / sweep_wall_ms : 0.0,
      pool.threads());
  if (total_event_ns > 0) {
    std::printf("engine: %llu events executed, %.2f M events/sec per thread\n",
                static_cast<unsigned long long>(total_events),
                static_cast<double>(total_events) * 1e3 /
                    static_cast<double>(total_event_ns));
  }

  if (opts.out != "-") {
    runner::BenchJsonMeta meta;
    meta.point_set = opts.reduced ? "reduced" : "full";
    meta.threads = pool.threads();
    meta.sweep_wall_ms = sweep_wall_ms;
    std::ofstream out(opts.out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", opts.out.c_str());
      return 2;
    }
    runner::write_bench_json(out, results, meta);
    std::printf("wrote %s\n", opts.out.c_str());
  }

  if (!opts.write_golden.empty()) {
    if (failed) {
      std::fprintf(stderr, "not writing %s: %d point(s) failed\n",
                   opts.write_golden.c_str(), failed);
      return 1;
    }
    std::ofstream golden(opts.write_golden);
    if (!golden) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   opts.write_golden.c_str());
      return 2;
    }
    runner::write_golden_json(golden, results);
    std::printf("wrote golden table %s\n", opts.write_golden.c_str());
  }

  int mismatches = 0;
  if (!opts.check_golden.empty()) {
    std::ifstream golden(opts.check_golden);
    if (!golden) {
      std::fprintf(stderr, "cannot open %s\n", opts.check_golden.c_str());
      return 2;
    }
    const int rc = runner::check_golden(golden, results, stderr);
    if (rc == 2) return 2;
    if (rc == 0) {
      std::printf("golden check passed: %zu points match %s\n",
                  results.size(), opts.check_golden.c_str());
    }
    mismatches = rc;
  }
  int gate_failures = 0;
  for (std::size_t i = 0; i < suites.size(); ++i) {
    if (suites[i].gate != nullptr) gate_failures += suites[i].gate(by_suite[i]);
  }
  const int floor_failures = opts.check_floor ? runner::check_speedup_floor()
                                              : 0;
  return (failed || mismatches || gate_failures || floor_failures) ? 1 : 0;
}
