// Fast Fourier Transform — the computational core of the paper's first
// application (Section 3.1).
//
// The paper uses FFTW as its baseline implementation; here the equivalent
// is written from scratch: an iterative radix-2 Cooley-Tukey transform
// over complex<double>, plus the transpose-based 2D algorithm following
// the four-step template of Section 3.1.1:
//   1. 1D-FFT of every row
//   2. transpose
//   3. 1D-FFT of every row
//   4. transpose
// A naive O(n^2) DFT is provided as the test oracle.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "algo/matrix.hpp"

namespace acc::algo {

using Complex = std::complex<double>;

/// Plan for repeated 1D FFTs of a fixed power-of-two length: precomputed
/// bit-reversal permutation and twiddle factors (the moral equivalent of
/// an FFTW plan).
class FftPlan {
 public:
  enum class Direction { kForward, kInverse };

  FftPlan(std::size_t n, Direction dir);

  std::size_t length() const { return n_; }
  Direction direction() const { return dir_; }

  /// In-place transform of `data[0..n)`.
  void execute(Complex* data) const;
  void execute(std::vector<Complex>& data) const;

 private:
  std::size_t n_;
  Direction dir_;
  std::vector<std::size_t> bit_reverse_;
  // Twiddles for all stages, concatenated: stage s (half-size h = 2^s)
  // stores h factors starting at offset h - 1.
  std::vector<Complex> twiddles_;
};

/// One-shot in-place forward FFT; n must be a power of two.
void fft_inplace(std::vector<Complex>& data);

/// One-shot in-place inverse FFT (includes the 1/n scaling).
void ifft_inplace(std::vector<Complex>& data);

/// Naive O(n^2) reference DFT (forward); the correctness oracle.
std::vector<Complex> dft_reference(const std::vector<Complex>& input);

/// Forward 2D FFT by the transpose method; matrix must be square with
/// power-of-two dimension.  This mirrors the serial version of the
/// parallel algorithm in Section 3.1.1.
void fft2d_inplace(Matrix<Complex>& m);

/// Inverse 2D FFT (with scaling), the round-trip partner of fft2d_inplace.
void ifft2d_inplace(Matrix<Complex>& m);

/// Naive O(n^4-ish) reference 2D DFT directly from Equation (1).
Matrix<Complex> dft2d_reference(const Matrix<Complex>& input);

/// True iff `got` and `want` have the same length and every element
/// satisfies |got[i] - want[i]| < tol.  A NaN element fails, since every
/// comparison with NaN is false.
bool all_close(std::span<const Complex> got, std::span<const Complex> want,
               double tol);

/// True if n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Floating-point operation count of one radix-2 1D FFT of length n,
/// ~5 n log2 n flops; used by the analytic model to estimate T_1D-FFT.
double fft_flops(std::size_t n);

}  // namespace acc::algo
