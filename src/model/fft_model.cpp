#include "model/fft_model.hpp"

#include "apps/host_costs.hpp"

namespace acc::model {

FftAnalyticModel::FftAnalyticModel(const Calibration& cal) : cal_(cal) {}

Bytes FftAnalyticModel::partition_size(std::size_t rows,
                                       std::size_t processors) const {
  // Equation (5): 16 bytes per complex double element.
  return Bytes(rows * rows * 16 / processors);
}

Time FftAnalyticModel::compute_time(std::size_t rows,
                                    std::size_t processors) const {
  const Bytes slab = partition_size(rows, processors);
  const Time per_row = apps::fft_row_time(cal_, memory(), rows, slab);
  // Equation (4): two row-FFT phases of rows/P rows each.
  return per_row * (2.0 * static_cast<double>(rows) /
                    static_cast<double>(processors));
}

Time FftAnalyticModel::t_dtc(std::size_t rows, std::size_t processors) const {
  // Equation (6): only the first processor's-worth of data is exposed;
  // the rest pipelines with transmission.
  const Bytes s = partition_size(rows, processors);
  return transfer_time(Bytes(s.count() / processors), cal_.host_to_card);
}

Time FftAnalyticModel::t_dtg(std::size_t rows, std::size_t processors) const {
  // Equation (7).
  const Bytes s = partition_size(rows, processors);
  return transfer_time(Bytes(s.count() / processors), cal_.card_to_network);
}

Time FftAnalyticModel::t_dfg(std::size_t rows, std::size_t processors) const {
  // Equation (8): (P-1)/P of the partition arrives from the network.
  const Bytes s = partition_size(rows, processors);
  return transfer_time(
      Bytes(s.count() * (processors - 1) / processors), cal_.card_to_network);
}

Time FftAnalyticModel::t_dth(std::size_t rows, std::size_t processors) const {
  // Equation (9): the full partition returns to the host after all data
  // has been received.
  return transfer_time(partition_size(rows, processors), cal_.host_to_card);
}

Time FftAnalyticModel::inic_transpose_time(std::size_t rows,
                                           std::size_t processors) const {
  if (processors == 1) {
    // Degenerate case: the transpose never leaves the host.
    const Bytes s = partition_size(rows, 1);
    return apps::transpose_pass_time(memory(), s, s) * 4.0;
  }
  // Equation (10): both transposes.
  return (t_dtc(rows, processors) + t_dtg(rows, processors) +
          t_dfg(rows, processors) + t_dth(rows, processors)) *
         2.0;
}

Time FftAnalyticModel::host_transpose_compute_time(
    std::size_t rows, std::size_t processors) const {
  const Bytes s = partition_size(rows, processors);
  // Per transpose: one local-transpose pass and one final-permutation
  // pass; two transposes per FFT.
  return apps::transpose_pass_time(memory(), s, s) * 4.0;
}

Time FftAnalyticModel::inic_total_time(std::size_t rows,
                                       std::size_t processors) const {
  return compute_time(rows, processors) +
         inic_transpose_time(rows, processors);
}

Time FftAnalyticModel::serial_time(std::size_t rows) const {
  return compute_time(rows, 1) + host_transpose_compute_time(rows, 1);
}

double FftAnalyticModel::inic_speedup(std::size_t rows,
                                      std::size_t processors) const {
  return serial_time(rows) / inic_total_time(rows, processors);
}

}  // namespace acc::model
