#include "core/experiment.hpp"

#include <map>
#include <mutex>

namespace acc::core {

namespace {

/// Shared memo for the serial baselines.  Serial runs are pure functions
/// of (size, calibration), so a cold-start race at most duplicates a
/// computation — the compute happens outside the lock to keep concurrent
/// sweep points from serializing behind a long serial run.
template <typename Compute>
Time memoized_serial(std::map<std::size_t, Time>& cache, std::mutex& mu,
                     std::size_t key, Compute compute) {
  {
    std::lock_guard<std::mutex> lock(mu);
    if (auto it = cache.find(key); it != cache.end()) return it->second;
  }
  const Time t = compute();
  std::lock_guard<std::mutex> lock(mu);
  return cache.emplace(key, t).first->second;
}

}  // namespace

Time serial_fft_total(std::size_t n, const model::Calibration& cal) {
  if (&cal != &model::default_calibration()) {
    return apps::run_serial_fft(cal, n).total;
  }
  static std::mutex mu;
  static std::map<std::size_t, Time> cache;
  return memoized_serial(cache, mu, n,
                         [&] { return apps::run_serial_fft(cal, n).total; });
}

Time serial_sort_total(std::size_t total_keys, const model::Calibration& cal) {
  if (&cal != &model::default_calibration()) {
    return apps::run_serial_sort(cal, total_keys).total;
  }
  static std::mutex mu;
  static std::map<std::size_t, Time> cache;
  return memoized_serial(cache, mu, total_keys, [&] {
    return apps::run_serial_sort(cal, total_keys).total;
  });
}

std::vector<SpeedupPoint> fft_speedup_series(
    apps::Interconnect ic, std::size_t n,
    const std::vector<std::size_t>& processors,
    const model::Calibration& cal) {
  const Time serial = serial_fft_total(n, cal);
  std::vector<SpeedupPoint> series;
  series.reserve(processors.size());
  apps::FftRunOptions opts;
  opts.verify = false;
  for (std::size_t p : processors) {
    apps::SimCluster cluster(p, ic, cal);
    const auto result = run_parallel_fft(cluster, n, opts);
    series.push_back(SpeedupPoint{p, result.total, serial / result.total});
  }
  return series;
}

std::vector<SpeedupPoint> sort_speedup_series(
    apps::Interconnect ic, std::size_t total_keys,
    const std::vector<std::size_t>& processors,
    const model::Calibration& cal) {
  const Time serial = serial_sort_total(total_keys, cal);
  std::vector<SpeedupPoint> series;
  series.reserve(processors.size());
  apps::SortRunOptions opts;
  opts.verify = false;
  for (std::size_t p : processors) {
    apps::SimCluster cluster(p, ic, cal);
    const auto result = run_parallel_sort(cluster, total_keys, opts);
    series.push_back(SpeedupPoint{p, result.total, serial / result.total});
  }
  return series;
}

apps::FftRunResult fft_point(apps::Interconnect ic, std::size_t n,
                             std::size_t processors,
                             const model::Calibration& cal) {
  apps::SimCluster cluster(processors, ic, cal);
  apps::FftRunOptions opts;
  opts.verify = false;
  return run_parallel_fft(cluster, n, opts);
}

apps::SortRunResult sort_point(apps::Interconnect ic, std::size_t total_keys,
                               std::size_t processors,
                               const model::Calibration& cal) {
  apps::SimCluster cluster(processors, ic, cal);
  apps::SortRunOptions opts;
  opts.verify = false;
  return run_parallel_sort(cluster, total_keys, opts);
}

}  // namespace acc::core
