#include "algo/fft.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace acc::algo {

namespace {

std::size_t log2_exact(std::size_t n) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  return bits;
}

}  // namespace

FftPlan::FftPlan(std::size_t n, Direction dir) : n_(n), dir_(dir) {
  if (!is_pow2(n)) {
    throw std::invalid_argument("FftPlan: length must be a power of two");
  }
  const std::size_t bits = log2_exact(n);

  bit_reverse_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t rev = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      rev = (rev << 1) | ((i >> b) & 1u);
    }
    bit_reverse_[i] = rev;
  }

  // Twiddles for each butterfly stage.  Stage with half-size h uses
  // w^k = exp(sign * 2*pi*i * k / (2h)) for k in [0, h).
  const double sign = dir == Direction::kForward ? -1.0 : 1.0;
  twiddles_.resize(n);  // sum over stages of h = n - 1, padded to n
  for (std::size_t h = 1; h < n; h *= 2) {
    const double base = sign * std::numbers::pi / static_cast<double>(h);
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = base * static_cast<double>(k);
      twiddles_[h - 1 + k] = Complex(std::cos(angle), std::sin(angle));
    }
  }
}

void FftPlan::execute(Complex* data) const {
  const std::size_t n = n_;
  // Bit-reversal permutation: each swap pair touched exactly once.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bit_reverse_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Iterative butterflies.
  for (std::size_t h = 1; h < n; h *= 2) {
    const Complex* w = twiddles_.data() + (h - 1);
    for (std::size_t start = 0; start < n; start += 2 * h) {
      Complex* even = data + start;
      Complex* odd = data + start + h;
      for (std::size_t k = 0; k < h; ++k) {
        const Complex t = w[k] * odd[k];
        odd[k] = even[k] - t;
        even[k] += t;
      }
    }
  }
  if (dir_ == Direction::kInverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i] *= inv;
  }
}

void FftPlan::execute(std::vector<Complex>& data) const {
  assert(data.size() == n_);
  execute(data.data());
}

void fft_inplace(std::vector<Complex>& data) {
  FftPlan plan(data.size(), FftPlan::Direction::kForward);
  plan.execute(data);
}

void ifft_inplace(std::vector<Complex>& data) {
  FftPlan plan(data.size(), FftPlan::Direction::kInverse);
  plan.execute(data);
}

std::vector<Complex> dft_reference(const std::vector<Complex>& input) {
  const std::size_t n = input.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(j) / static_cast<double>(n);
      sum += input[j] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = sum;
  }
  return out;
}

void fft2d_inplace(Matrix<Complex>& m) {
  assert(m.rows() == m.cols());
  FftPlan plan(m.cols(), FftPlan::Direction::kForward);
  // Step 1: row FFTs.
  for (std::size_t r = 0; r < m.rows(); ++r) plan.execute(m.row(r));
  // Step 2: transpose.
  transpose_square_inplace(m);
  // Step 3: row FFTs (former columns).
  for (std::size_t r = 0; r < m.rows(); ++r) plan.execute(m.row(r));
  // Step 4: transpose back to natural orientation.
  transpose_square_inplace(m);
}

void ifft2d_inplace(Matrix<Complex>& m) {
  assert(m.rows() == m.cols());
  FftPlan plan(m.cols(), FftPlan::Direction::kInverse);
  for (std::size_t r = 0; r < m.rows(); ++r) plan.execute(m.row(r));
  transpose_square_inplace(m);
  for (std::size_t r = 0; r < m.rows(); ++r) plan.execute(m.row(r));
  transpose_square_inplace(m);
}

Matrix<Complex> dft2d_reference(const Matrix<Complex>& input) {
  // Direct evaluation of Equation (1):
  //   Y[i1,i2] = sum_{j1,j2} X[j1,j2] w1^{-i1 j1} w2^{-i2 j2}.
  const std::size_t n1 = input.rows();
  const std::size_t n2 = input.cols();
  Matrix<Complex> out(n1, n2);
  for (std::size_t i1 = 0; i1 < n1; ++i1) {
    for (std::size_t i2 = 0; i2 < n2; ++i2) {
      Complex sum = 0;
      for (std::size_t j1 = 0; j1 < n1; ++j1) {
        for (std::size_t j2 = 0; j2 < n2; ++j2) {
          const double angle =
              -2.0 * std::numbers::pi *
              (static_cast<double>(i1 * j1) / static_cast<double>(n1) +
               static_cast<double>(i2 * j2) / static_cast<double>(n2));
          sum += input.at(j1, j2) * Complex(std::cos(angle), std::sin(angle));
        }
      }
      out.at(i1, i2) = sum;
    }
  }
  return out;
}

bool all_close(std::span<const Complex> got, std::span<const Complex> want,
               double tol) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) < tol)) return false;
  }
  return true;
}

double fft_flops(std::size_t n) {
  if (n <= 1) return 0.0;
  const double dn = static_cast<double>(n);
  return 5.0 * dn * std::log2(dn);
}

}  // namespace acc::algo
