#include "runner/bench_points.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "runner/bench_json.hpp"
#include "runner/suites/suites.hpp"

namespace acc::runner {

std::vector<Suite> bench_suites(bool reduced) {
  using namespace suites;
  std::vector<Suite> all;
  add_app_suites(reduced, all);
  add_transfer_suites(reduced, all);
  all.push_back(topology_suite(reduced));
  all.push_back(collectives_suite(reduced));
  all.push_back(failover_suite(reduced));
  all.push_back(chaos_suite(reduced));
  all.push_back(serving_suite(reduced));
  all.push_back(engine_scaling_suite(reduced));
  return all;
}

int check_speedup_floor() {
  const double kFloor = 1.6;
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    // A 4-thread speedup floor on a host with fewer than 4 cores is
    // vacuously red: the workers time-slice one another and the best
    // possible "speedup" is ~1.0x.  Skip loudly rather than fail — the
    // determinism half of the contract is still fully checked by
    // tests/parallel_scaling_test.cpp on any core count.
    std::printf("\nfloor check SKIPPED: host reports %u core(s); the "
                ">= %.1fx @ 4 threads gate needs >= 4\n",
                cores, kFloor);
    return 0;
  }
  // SimCluster digests differ by design between one LP and per-switch
  // LPs, so the 4-thread runs are checked against a 2-thread reference
  // and against the serial run's end time.
  const std::vector<Suite> grid = bench_suites(/*reduced=*/false);
  const auto run = [&](std::size_t threads) {
    const std::string name =
        std::string(kSpeedupFloorPoint) + "/threads=" + std::to_string(threads);
    for (const Suite& suite : grid) {
      for (const RunPoint& p : suite.points) {
        if (p.suite == "engine_scaling" && p.name == name) return p.body();
      }
    }
    throw std::logic_error("no engine_scaling point " + name);
  };
  std::printf("\n== speedup floor: %s, 4 threads, >= %.1fx ==\n",
              kSpeedupFloorPoint, kFloor);
  double best = 0.0;
  std::optional<RunMetrics> reference;
  // Best of three back-to-back 1- vs 4-thread attempts; stop early once
  // the floor is met to save CI time.
  for (int attempt = 1; attempt <= 3 && best < kFloor; ++attempt) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const RunMetrics serial = run(1);
    const auto t1 = clock::now();
    const RunMetrics parallel = run(4);
    const auto t2 = clock::now();
    if (!reference) reference = run(2);
    if (parallel.digest != reference->digest ||
        parallel.sim_time != serial.sim_time) {
      std::fprintf(stderr,
                   "FLOOR ABORT: 4-thread run (digest %s) diverged from the "
                   "2-thread reference (digest %s) or the serial end time "
                   "— determinism bug, not a perf issue\n",
                   digest_hex(parallel.digest).c_str(),
                   digest_hex(reference->digest).c_str());
      return 1;  // fail immediately
    }
    const double serial_s = std::chrono::duration<double>(t1 - t0).count();
    const double parallel_s = std::chrono::duration<double>(t2 - t1).count();
    const double s = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    std::printf("attempt %d: %.2fx\n", attempt, s);
    best = std::max(best, s);
  }
  if (best < kFloor) {
    std::fprintf(stderr, "FLOOR FAILED: best speedup %.2fx < %.1fx at 4 "
                 "threads\n", best, kFloor);
    return 1;
  }
  std::printf("floor passed: best %.2fx >= %.1fx\n", best, kFloor);
  return 0;
}

}  // namespace acc::runner
