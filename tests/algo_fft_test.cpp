// FFT correctness: against the naive DFT oracle, round trips, linearity,
// Parseval's identity, and known closed-form transforms.
#include "algo/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "common/rng.hpp"

namespace acc::algo {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (!(d <= worst)) worst = d;  // a NaN sticks, failing EXPECT_LT
  }
  return worst;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(3, FftPlan::Direction::kForward), std::invalid_argument);
  EXPECT_THROW(FftPlan(0, FftPlan::Direction::kForward), std::invalid_argument);
  EXPECT_THROW(FftPlan(100, FftPlan::Direction::kForward),
               std::invalid_argument);
}

TEST(Fft, LengthOneIsIdentity) {
  std::vector<Complex> v{Complex(3.5, -2.0)};
  fft_inplace(v);
  EXPECT_EQ(v[0], Complex(3.5, -2.0));
}

TEST(Fft, ImpulseTransformsToConstant) {
  std::vector<Complex> v(8, 0.0);
  v[0] = 1.0;
  fft_inplace(v);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToImpulse) {
  std::vector<Complex> v(16, Complex(2.0, 0.0));
  fft_inplace(v);
  EXPECT_NEAR(v[0].real(), 32.0, 1e-12);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-10);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  std::vector<Complex> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(tone) *
                         static_cast<double>(j) / static_cast<double>(n);
    v[j] = Complex(std::cos(angle), std::sin(angle));
  }
  fft_inplace(v);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = k == tone ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(v[k]), expected, 1e-9) << "bin " << k;
  }
}

class FftOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftOracle, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 1000 + n);
  auto expected = dft_reference(signal);
  fft_inplace(signal);
  EXPECT_LT(max_abs_diff(signal, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftOracle, InverseRoundTripsToInput) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 2000 + n);
  auto original = signal;
  fft_inplace(signal);
  ifft_inplace(signal);
  EXPECT_LT(max_abs_diff(signal, original), 1e-10 * static_cast<double>(n));
}

TEST_P(FftOracle, IsLinear) {
  const std::size_t n = GetParam();
  auto a = random_signal(n, 3000 + n);
  auto b = random_signal(n, 4000 + n);
  const Complex alpha(1.25, -0.5);

  std::vector<Complex> combined(n);
  for (std::size_t i = 0; i < n; ++i) combined[i] = alpha * a[i] + b[i];

  fft_inplace(a);
  fft_inplace(b);
  fft_inplace(combined);
  std::vector<Complex> expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = alpha * a[i] + b[i];
  EXPECT_LT(max_abs_diff(combined, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftOracle, SatisfiesParseval) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 5000 + n);
  double time_energy = 0.0;
  for (const auto& x : signal) time_energy += std::norm(x);
  fft_inplace(signal);
  double freq_energy = 0.0;
  for (const auto& x : signal) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftOracle,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft, PlanIsReusableAcrossRows) {
  FftPlan plan(32, FftPlan::Direction::kForward);
  for (int row = 0; row < 4; ++row) {
    auto signal = random_signal(32, 6000 + row);
    auto expected = dft_reference(signal);
    plan.execute(signal);
    EXPECT_LT(max_abs_diff(signal, expected), 1e-9);
  }
}

TEST(Fft2d, MatchesReference2dDft) {
  const std::size_t n = 8;
  Matrix<Complex> m(n, n);
  Rng rng(7);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.at(r, c) = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
  }
  const auto expected = dft2d_reference(m);
  fft2d_inplace(m);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_NEAR(std::abs(m.at(r, c) - expected.at(r, c)), 0.0, 1e-9);
    }
  }
}

TEST(Fft2d, RoundTripRestoresInput) {
  const std::size_t n = 16;
  Matrix<Complex> m(n, n);
  Rng rng(11);
  for (auto& x : m.storage()) x = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const Matrix<Complex> original = m;
  fft2d_inplace(m);
  ifft2d_inplace(m);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(std::abs(m.storage()[i] - original.storage()[i]), 0.0, 1e-10);
  }
}

TEST(Fft2d, ImpulseTransformsToAllOnes) {
  Matrix<Complex> m(8, 8);
  m.at(0, 0) = 1.0;
  fft2d_inplace(m);
  for (const auto& x : m.storage()) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, FlopCountMatchesFormula) {
  EXPECT_DOUBLE_EQ(fft_flops(1), 0.0);
  EXPECT_DOUBLE_EQ(fft_flops(2), 10.0);
  EXPECT_DOUBLE_EQ(fft_flops(1024), 5.0 * 1024 * 10);
}

TEST(AllClose, AcceptsErrorsBelowToleranceAndRejectsNaN) {
  const std::vector<Complex> want = random_signal(64, 8);
  const double tol = 1e-6 * 64;
  std::vector<Complex> got = want;
  EXPECT_TRUE(all_close(got, want, tol));
  got[17] += Complex(0.9 * tol, 0.0);
  EXPECT_TRUE(all_close(got, want, tol));
  got[17] = want[17] + Complex(0.0, 2.0 * tol);
  EXPECT_FALSE(all_close(got, want, tol));
  got[17] = Complex(std::numeric_limits<double>::quiet_NaN(), 0.0);
  EXPECT_FALSE(all_close(got, want, tol));
  got[17] = want[17];
  got.pop_back();
  EXPECT_FALSE(all_close(got, want, tol));
}

}  // namespace
}  // namespace acc::algo
