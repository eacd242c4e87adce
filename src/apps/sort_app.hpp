// Distributed integer-sort application (Section 3.2), in three
// implementations:
//
//   * HostTcp        — the baseline (Figure 3a): the host bucket sorts
//     into P buckets, exchanges buckets over TCP, bucket sorts the
//     incoming stream into cache-sized buckets, then count sorts.
//   * Inic (ideal)   — Figure 3b: both bucket sorts run on the INIC in
//     the data stream; the host only count sorts the final buckets.
//   * Inic (prototype, Figure 7) — the ACEII can only sort into 16
//     hardware buckets, so the host performs a second-phase bucket sort
//     before count sorting.
//
// As with the FFT app, real keys move when verification is on, and every
// phase charges simulated time.
#pragma once

#include <cstdint>

#include "apps/cluster.hpp"
#include "common/units.hpp"

namespace acc::apps {

struct SortRunResult {
  std::size_t total_keys = 0;     // E_init
  std::size_t processors = 0;
  Interconnect interconnect{};
  Time total = Time::zero();
  Time count_sort = Time::zero();      // final count-sort phase
  Time redistribution = Time::zero();  // everything else (T_INIC / comm)
  Time bucket_phase1 = Time::zero();   // host send-side bucket sort (TCP)
  Time bucket_phase2 = Time::zero();   // host recv-side bucket sort
  /// With verify on: the concatenation of the nodes' sorted outputs, in
  /// node order, equals std::sort of the concatenation of their initial
  /// keys (algo::is_sorted_permutation_of).  Always true for
  /// run_serial_sort.
  bool verified = false;
};

/// Synthetic key distribution (Section 3.2: the paper uses uniform keys
/// and notes that NAS-style benchmarks use Gaussian, with "sampling in a
/// pre-sort phase" as the balancing remedy).
enum class KeyDistribution { kUniform, kGaussian };

struct SortRunOptions {
  bool verify = true;
  std::uint64_t seed = 7;
  /// Cache-sized count-sort buckets per node (the paper's N; >= 128 for
  /// 2^21+ keys).
  std::size_t cache_buckets = 256;
  KeyDistribution distribution = KeyDistribution::kUniform;
  double gaussian_sigma = static_cast<double>(1u << 29);
  /// Use a sampling pre-sort phase to choose destination splitters
  /// instead of top-bit bucketing — balances skewed distributions.
  bool sampling_splitters = false;
};

/// Sorts E_init uniformly distributed 32-bit keys, initially distributed
/// evenly across the cluster; P must be a power of two (Section 3.2.1).
SortRunResult run_parallel_sort(SimCluster& cluster, std::size_t total_keys,
                                const SortRunOptions& opts = {});

/// Serial reference (the speedup denominator): one bucket-sort
/// distribution pass into coarse buckets, a second pass into cache-sized
/// buckets, then count sort — all on one host.
SortRunResult run_serial_sort(const model::Calibration& cal,
                              std::size_t total_keys);

}  // namespace acc::apps
