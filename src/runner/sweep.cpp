#include "runner/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

namespace acc::runner {

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

std::uint64_t wall_ns_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

RunRecord execute(const RunPoint& point) {
  RunRecord rec;
  rec.suite = point.suite;
  rec.name = point.name;
  rec.params = point.params;
  const auto start = std::chrono::steady_clock::now();
  try {
    rec.metrics = point.body();
    rec.ok = true;
  } catch (const std::exception& e) {
    rec.error = e.what();
  } catch (...) {
    rec.error = "unknown exception";
  }
  rec.wall_ns = wall_ns_since(start);
  rec.wall_ms = static_cast<double>(rec.wall_ns) / 1e6;
  return rec;
}

}  // namespace

void derive_scaling_ratios(std::vector<RunRecord>& records) {
  const auto shape = [](const RunRecord& r) {
    auto params = r.params;
    std::erase_if(params, [](const auto& kv) { return kv.first == "threads"; });
    return params;
  };
  for (RunRecord& r : records) {
    if (!r.ok || r.metrics.threads <= 1 || r.wall_ns == 0) continue;
    for (const RunRecord& base : records) {
      if (!base.ok || base.metrics.threads != 1 || base.wall_ns == 0 ||
          base.suite != r.suite || shape(base) != shape(r)) {
        continue;
      }
      r.metrics.speedup = static_cast<double>(base.wall_ns) /
                          static_cast<double>(r.wall_ns);
      r.metrics.scaling_efficiency =
          r.metrics.speedup / static_cast<double>(r.metrics.threads);
      break;
    }
  }
}

SweepRunner::SweepRunner(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
}

std::vector<RunRecord> SweepRunner::run(
    const std::vector<RunPoint>& points) const {
  const auto sweep_start = std::chrono::steady_clock::now();
  std::vector<RunRecord> results(points.size());

  const std::size_t workers = std::min(threads_, points.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      results[i] = execute(points[i]);
    }
    last_wall_ms_ = wall_ms_since(sweep_start);
    return results;
  }

  // Work queue: a shared claim index.  Each worker claims the next
  // unstarted point and writes its record into the submission-order
  // slot, so completion order never shows in the output.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      results[i] = execute(points[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  last_wall_ms_ = wall_ms_since(sweep_start);
  return results;
}

}  // namespace acc::runner
