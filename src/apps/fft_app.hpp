// Distributed 2D-FFT application (Section 3.1), in both implementations:
//
//   * HostTcp  — the FFTW-template baseline: the host CPU performs the
//     local transpose and final permutation, and the all-to-all exchange
//     rides TCP over the standard NIC (Figure 2a).
//   * Inic     — the ACC implementation: all transpose data manipulation
//     is pushed onto the INIC and embedded in the communication
//     (Figure 2b); the host only computes row FFTs.
//
// Both variants move the real matrix data, so the distributed result can
// be verified against the serial fft2d oracle, while every phase charges
// simulated time on the hardware models.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/fft.hpp"
#include "apps/cluster.hpp"
#include "common/units.hpp"

namespace acc::apps {

struct FftRunResult {
  std::size_t n = 0;            // matrix dimension
  std::size_t processors = 0;
  Interconnect interconnect{};
  Time total = Time::zero();
  Time compute = Time::zero();    // row-FFT time (critical path)
  Time transpose = Time::zero();  // both transposes end-to-end
  /// With verify on: every element of the distributed result is within
  /// 1e-6 * n (absolute) of the serial fft2d oracle's; a NaN element
  /// fails.  Always true for run_serial_fft.
  bool verified = false;
};

struct FftRunOptions {
  /// Move and verify real matrix data (slower; tests and examples) or
  /// run timing-only (benches at large sizes).
  bool verify = true;
  std::uint64_t seed = 42;
};

/// Runs the 4-step parallel 2D FFT (rows-FFT, transpose, rows-FFT,
/// transpose) of an n x n complex matrix on the given cluster.
/// n must be a power of two and divisible by the cluster size.
FftRunResult run_parallel_fft(SimCluster& cluster, std::size_t n,
                              const FftRunOptions& opts = {});

/// Serial reference run (1 processor, no communication) — the
/// denominator of every speedup the paper plots.  Uses the same cost
/// model as the parallel path.
FftRunResult run_serial_fft(const model::Calibration& cal, std::size_t n);

}  // namespace acc::apps
