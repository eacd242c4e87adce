// Analytic FFT performance model — Section 4.1, Equations (3)-(10).
//
// This is the closed-form model the paper uses to produce Figure 4: the
// run time is the sum of compute time (Equation 4) and transpose time
// (Equation 10), where the INIC transpose is four pipelined stage delays
// (Equations 6-9).  The Gigabit-Ethernet comparison curves in the paper
// are *measurements*; in this reproduction they come from the simulator
// (apps/fft_app), while this model supplies the INIC estimates exactly as
// the paper computed them.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "hw/memory.hpp"
#include "model/calibration.hpp"

namespace acc::model {

class FftAnalyticModel {
 public:
  explicit FftAnalyticModel(const Calibration& cal = default_calibration());

  /// Equation (5): partition size S = rows^2 * 16 / P bytes.
  Bytes partition_size(std::size_t rows, std::size_t processors) const;

  /// Equation (4): T_compute = 2 * (T_1D-FFT(rows) * rows / P), with
  /// T_1D-FFT from the host cost model (flops + memory pass).
  Time compute_time(std::size_t rows, std::size_t processors) const;

  /// Equations (6)-(9), the four pipelined INIC stage delays.
  Time t_dtc(std::size_t rows, std::size_t processors) const;  // host->card
  Time t_dtg(std::size_t rows, std::size_t processors) const;  // card->net
  Time t_dfg(std::size_t rows, std::size_t processors) const;  // net->card
  Time t_dth(std::size_t rows, std::size_t processors) const;  // card->host

  /// Equation (10): T_trans = 2 * (T_dtc + T_dtg + T_dfg + T_dth).
  Time inic_transpose_time(std::size_t rows, std::size_t processors) const;

  /// Host-side transpose compute (local transpose + final permutation on
  /// the host, both strided passes) — the "NIC Transpose Compute Time"
  /// component of Figure 4(b).
  Time host_transpose_compute_time(std::size_t rows,
                                   std::size_t processors) const;

  /// Equation (3) assembled for the INIC: T = T_compute + T_trans.
  Time inic_total_time(std::size_t rows, std::size_t processors) const;

  /// Serial baseline (P = 1, host does everything locally) — the
  /// speedup denominator.
  Time serial_time(std::size_t rows) const;

  /// Speedup of the INIC implementation at P processors.
  double inic_speedup(std::size_t rows, std::size_t processors) const;

  const Calibration& calibration() const { return cal_; }

 private:
  /// The host memory model over this model's own calibration (built per
  /// use, so copies of the model never share one).
  hw::MemoryHierarchy memory() const { return hw::MemoryHierarchy(cal_); }

  Calibration cal_;
};

}  // namespace acc::model
