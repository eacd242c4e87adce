// Host memory-hierarchy cost model.
//
// The paper repeatedly leans on the "weak PC memory hierarchy": compute
// time in Figure 4(b) steps where "the local partition fits into a faster
// level of the memory hierarchy", and Section 3.2.2 argues count sort
// belongs on the host *because* cache bandwidth beats INIC memory
// bandwidth.  This model captures exactly that effect: the effective
// bandwidth of a data pass is a function of the working-set size relative
// to the cache capacities, blending between levels near the boundaries.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/units.hpp"
#include "model/calibration.hpp"

namespace acc::hw {

/// Reads the cache sizes and level bandwidths from the calibration it is
/// given, which must outlive it (a temporary does not compile).
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(
      const model::Calibration& cal = model::default_calibration())
      : cal_(cal) {}
  explicit MemoryHierarchy(const model::Calibration&&) = delete;

  /// Effective bandwidth of a sequential pass whose working set is
  /// `working_set` bytes.  Within a level the bandwidth is flat; across a
  /// boundary it blends geometrically over one octave so the compute
  /// curve shows the paper's "steps" without a discontinuity.
  Bandwidth effective_bandwidth(Bytes working_set) const {
    const double ws = static_cast<double>(working_set.count());
    const double l1 = static_cast<double>(cal_.l1_size.count());
    const double l2 = static_cast<double>(cal_.l2_size.count());
    const double bw1 = cal_.l1_bandwidth.bytes_per_second();
    const double bw2 = cal_.l2_bandwidth.bytes_per_second();
    const double bw3 = cal_.dram_bandwidth.bytes_per_second();
    return Bandwidth::bytes_per_sec(
        blend(ws, l2, blend(ws, l1, bw1, bw2), bw3));
  }

  /// Time for one sequential pass over `amount` bytes with the given
  /// working set (reads + writes already folded into the bandwidths).
  Time pass_time(Bytes amount, Bytes working_set) const {
    return transfer_time(amount, effective_bandwidth(working_set));
  }

  /// Slowdown factor of a strided (transpose-like) pass relative to a
  /// sequential one.  In cache, strides are free; out of cache each
  /// element touch drags a mostly-wasted cache line from DRAM, costing
  /// ~3x the streaming rate on PC-class hardware.  This is the "weak PC
  /// memory hierarchy" cost that the INIC hides by reorganizing the data
  /// in the network stream instead.
  double strided_penalty(Bytes working_set) const {
    const double ws = static_cast<double>(working_set.count());
    const double l2 = static_cast<double>(cal_.l2_size.count());
    if (ws <= l2) return 1.0;
    if (ws >= 2.0 * l2) return kStridedDramPenalty;
    const double t = std::log2(ws / l2);
    return std::pow(kStridedDramPenalty, t);
  }

  /// Time for one strided (row/column-swapping) pass over `amount` bytes.
  Time strided_pass_time(Bytes amount, Bytes working_set) const {
    return pass_time(amount, working_set) * strided_penalty(working_set);
  }

  const model::Calibration& calibration() const { return cal_; }

 private:
  static constexpr double kStridedDramPenalty = 3.0;

  // Geometric interpolation of bandwidth across a capacity boundary:
  // below `size` -> fast; above 2*size -> slow; log-linear between.
  static double blend(double ws, double size, double fast, double slow) {
    if (ws <= size) return fast;
    if (ws >= 2.0 * size) return slow;
    const double t = std::log2(ws / size);  // 0..1 over one octave
    return fast * std::pow(slow / fast, t);
  }

  const model::Calibration& cal_;
};

}  // namespace acc::hw
