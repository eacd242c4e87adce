// Parallel-engine scaling sweep: the engine_scaling suite on its own.
//
// Runs the LP-partitioned fabric workload (net/lp_workload.hpp) at
// 1/2/4 worker threads over the engine_scaling grid and reports, per
// point, events/sec (events over the point's own wall clock), speedup
// over the shape's 1-thread point, and the derived scaling efficiency —
// the BENCH_results.json v4 fields.
//
// Usage:
//   engine_scaling [--points=full|reduced] [--out=PATH] [--check-floor]
//
// The sweep pool is intentionally pinned to ONE thread: each point owns
// a private worker pool, and running scaling points beside each other
// would corrupt every wall-clock ratio the suite exists to measure.
//
// --check-floor is the CI gate for the parallel engine: it re-measures
// the 1024-host fat-tree shape (runner::engine_scaling_floor_config())
// back-to-back at 1 and 4 threads and fails unless the best of three
// attempts reaches a 1.6x speedup — first on the synthetic LP workload,
// then on the 1024-host SimCluster shape whose device models (cards,
// DMA, switch FIFOs) ride the per-switch LPs.  On hosts reporting fewer
// than 4 cores the gate prints SKIPPED and exits 0 (4 time-sliced
// workers on 1 core can never beat 1.0x — that is physics, not a
// regression).  Determinism is NOT this gate's job (digests are
// compared across thread counts by tests/parallel_scaling_test.cpp);
// this one keeps the parallelism real.  The only digest comparisons
// here abort on divergence: 1-vs-4 threads for the LP workload, and
// 2-vs-4 threads for the SimCluster shape (its serial digest is a
// different constant by design — per-lane frame ids; see
// docs/TRACING.md).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "net/lp_workload.hpp"
#include "runner/bench_json.hpp"
#include "runner/bench_points.hpp"
#include "runner/sweep.hpp"

using namespace acc;

namespace {

struct Options {
  bool reduced = false;
  bool check_floor = false;
  std::string out = "BENCH_results.json";
};

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--points=reduced") {
      opts.reduced = true;
    } else if (arg == "--points=full") {
      opts.reduced = false;
    } else if (arg.rfind("--out=", 0) == 0) {
      opts.out = arg.substr(6);
    } else if (arg == "--check-floor") {
      opts.check_floor = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::int64_t counter(const runner::RunRecord& r, const char* name) {
  for (const auto& [key, value] : r.metrics.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// One floor attempt: the pinned shape at 1 then 4 threads,
/// back-to-back on an otherwise idle process.  Returns the speedup.
double floor_attempt(const net::LpWorkloadConfig& cfg) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto serial = net::run_lp_workload(cfg, /*threads=*/1);
  const auto t1 = clock::now();
  const auto parallel = net::run_lp_workload(cfg, /*threads=*/4);
  const auto t2 = clock::now();
  if (serial.digest != parallel.digest ||
      serial.checksum != parallel.checksum) {
    std::fprintf(stderr,
                 "FLOOR ABORT: 1-thread and 4-thread runs diverged "
                 "(digest %s vs %s) — determinism bug, not a perf issue\n",
                 runner::digest_hex(serial.digest).c_str(),
                 runner::digest_hex(parallel.digest).c_str());
    return -1.0;
  }
  const double serial_s = std::chrono::duration<double>(t1 - t0).count();
  const double parallel_s = std::chrono::duration<double>(t2 - t1).count();
  if (parallel_s <= 0.0) return 0.0;
  return serial_s / parallel_s;
}

/// One SimCluster floor attempt: the pinned 1024-host cluster shape at
/// 1 then 4 threads.  `sharded_digest` carries the 2-thread reference
/// digest across attempts (serial and sharded digests are different
/// constants by design, so the determinism abort compares 4-thread runs
/// against the 2-thread reference, never against serial).
double cluster_floor_attempt(std::uint64_t sharded_digest) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto serial =
      runner::run_cluster_scaling_point(runner::kClusterScalingFloorHosts,
                                        /*threads=*/1);
  const auto t1 = clock::now();
  const auto parallel =
      runner::run_cluster_scaling_point(runner::kClusterScalingFloorHosts,
                                        /*threads=*/4);
  const auto t2 = clock::now();
  if (parallel.digest != sharded_digest) {
    std::fprintf(stderr,
                 "CLUSTER FLOOR ABORT: 4-thread digest %s diverged from "
                 "the 2-thread reference %s — determinism bug, not a perf "
                 "issue\n",
                 runner::digest_hex(parallel.digest).c_str(),
                 runner::digest_hex(sharded_digest).c_str());
    return -1.0;
  }
  if (parallel.sim_time != serial.sim_time) {
    std::fprintf(stderr,
                 "CLUSTER FLOOR ABORT: sharded end time diverged from "
                 "serial — equivalence bug, not a perf issue\n");
    return -1.0;
  }
  const double serial_s = std::chrono::duration<double>(t1 - t0).count();
  const double parallel_s = std::chrono::duration<double>(t2 - t1).count();
  if (parallel_s <= 0.0) return 0.0;
  return serial_s / parallel_s;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;

  const auto points = runner::engine_scaling_points(opts.reduced);
  runner::SweepRunner pool(/*threads=*/1);  // see header comment
  print_banner("engine_scaling: " + std::to_string(points.size()) +
               " points (" + std::string(opts.reduced ? "reduced" : "full") +
               "), serial sweep (each point owns a worker pool)");
  const auto results = pool.run(points);

  Table table({"point", "LPs", "events", "windows", "cross posts",
               "events/sec", "speedup", "efficiency", "digest"});
  int failed = 0;
  for (const auto& r : results) {
    table.row().add(r.name);
    if (!r.ok) {
      ++failed;
      std::fprintf(stderr, "FAILED %s: %s\n", r.name.c_str(), r.error.c_str());
      table.add("ERROR: " + r.error);
      for (int i = 0; i < 7; ++i) table.skip();
      continue;
    }
    table.add(counter(r, "lp_count"))
        .add(static_cast<std::int64_t>(r.metrics.events))
        .add(counter(r, "windows"))
        .add(counter(r, "cross_posts"))
        .add(r.events_per_sec(), 0)
        .add(r.metrics.speedup, 2)
        .add(r.metrics.scaling_efficiency, 2)
        .add(runner::digest_hex(r.metrics.digest));
  }
  table.print();

  if (opts.out != "-") {
    runner::BenchJsonMeta meta;
    meta.point_set = opts.reduced ? "reduced" : "full";
    meta.threads = pool.threads();
    meta.sweep_wall_ms = pool.last_sweep_wall_ms();
    std::ofstream out(opts.out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", opts.out.c_str());
      return 2;
    }
    runner::write_bench_json(out, results, meta);
    std::printf("wrote %s\n", opts.out.c_str());
  }

  int floor_failures = 0;
  if (opts.check_floor) {
    const double kFloor = 1.6;
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 4) {
      // A 4-thread speedup floor on a host with fewer than 4 cores is
      // vacuously red: the workers time-slice one another and the best
      // possible "speedup" is ~1.0x.  Skip loudly rather than fail —
      // the determinism half of the contract is still fully checked by
      // tests/parallel_scaling_test.cpp on any core count.
      std::printf("\nfloor check SKIPPED: host reports %u core(s); the "
                  ">= %.1fx @ 4 threads gate needs >= 4\n",
                  cores, kFloor);
      return failed ? 1 : 0;
    }
    const net::LpWorkloadConfig cfg = runner::engine_scaling_floor_config();
    std::printf("\n== speedup floor: fat_tree(3) %zu hosts, 4 threads, "
                ">= %.1fx ==\n",
                cfg.hosts, kFloor);
    double best = 0.0;
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const double s = floor_attempt(cfg);
      if (s < 0.0) return 1;  // determinism divergence: fail immediately
      std::printf("attempt %d: %.2fx\n", attempt, s);
      if (s > best) best = s;
      if (best >= kFloor) break;  // no need to burn more CI time
    }
    if (best >= kFloor) {
      std::printf("floor passed: best %.2fx >= %.1fx\n", best, kFloor);
    } else {
      ++floor_failures;
      std::fprintf(stderr,
                   "FLOOR FAILED: best speedup %.2fx < %.1fx at 4 threads\n",
                   best, kFloor);
    }

    std::printf("\n== SimCluster speedup floor: fat_tree(3) %zu hosts, "
                "4 threads, >= %.1fx ==\n",
                runner::kClusterScalingFloorHosts, kFloor);
    // 2-thread reference digest for the cross-thread determinism abort
    // (the serial digest is a different constant by design).
    const auto two =
        runner::run_cluster_scaling_point(runner::kClusterScalingFloorHosts,
                                          /*threads=*/2);
    double cluster_best = 0.0;
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const double s = cluster_floor_attempt(two.digest);
      if (s < 0.0) return 1;  // determinism divergence: fail immediately
      std::printf("attempt %d: %.2fx\n", attempt, s);
      if (s > cluster_best) cluster_best = s;
      if (cluster_best >= kFloor) break;
    }
    if (cluster_best >= kFloor) {
      std::printf("cluster floor passed: best %.2fx >= %.1fx\n",
                  cluster_best, kFloor);
    } else {
      ++floor_failures;
      std::fprintf(stderr,
                   "CLUSTER FLOOR FAILED: best speedup %.2fx < %.1fx at "
                   "4 threads\n",
                   cluster_best, kFloor);
    }
  }
  return (failed || floor_failures) ? 1 : 0;
}
