// Unit tests for the common substrate: units arithmetic, RNG
// determinism and uniformity, table printing.
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace acc {
namespace {

TEST(Units, TimeConstructorsAgree) {
  EXPECT_EQ(Time::seconds(1.0), Time::millis(1000.0));
  EXPECT_EQ(Time::millis(1.0), Time::micros(1000.0));
  EXPECT_EQ(Time::micros(1.0), Time::nanos(1000));
  EXPECT_EQ(Time::zero().as_nanos(), 0);
}

TEST(Units, TimeArithmetic) {
  const Time a = Time::millis(3);
  const Time b = Time::millis(1.5);
  EXPECT_EQ(a + b, Time::millis(4.5));
  EXPECT_EQ(a - b, Time::millis(1.5));
  EXPECT_EQ(a * 2.0, Time::millis(6));
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_LT(b, a);
}

TEST(Units, BytesArithmeticAndHelpers) {
  EXPECT_EQ(Bytes::kib(1).count(), 1024u);
  EXPECT_EQ(Bytes::mib(2), Bytes::kib(2048));
  EXPECT_EQ(Bytes(100) + Bytes(28), Bytes(128));
  EXPECT_EQ(Bytes(128) - Bytes(28), Bytes(100));
  EXPECT_EQ(Bytes::kib(4) * 2u, Bytes::kib(8));
  EXPECT_DOUBLE_EQ(Bytes::mib(3).as_mib(), 3.0);
}

TEST(Units, BandwidthConversions) {
  // 1 Gb/s = 125 MB/s decimal.
  EXPECT_DOUBLE_EQ(Bandwidth::gbit_per_sec(1.0).bytes_per_second(), 125e6);
  EXPECT_DOUBLE_EQ(Bandwidth::mib_per_sec(80.0).bytes_per_second(),
                   80.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(Bandwidth::mbit_per_sec(100.0).bytes_per_second(), 12.5e6);
}

TEST(Units, TransferTimeMatchesHandComputation) {
  // 1 MiB at 1 MiB/s = 1 second.
  EXPECT_EQ(transfer_time(Bytes::mib(1), Bandwidth::mib_per_sec(1.0)),
            Time::seconds(1.0));
  // Equation 6-style: (S/P)/80 MiB/s.
  const Bytes s(512ull * 512 * 16 / 8 / 8);
  const Time t = transfer_time(s, Bandwidth::mib_per_sec(80.0));
  EXPECT_NEAR(t.as_seconds(),
              static_cast<double>(s.count()) / (80.0 * 1024 * 1024), 1e-9);
}

TEST(Units, StreamFormatting) {
  EXPECT_EQ(to_string(Time::nanos(500)), "500 ns");
  EXPECT_EQ(to_string(Time::micros(50)), "50.00 us");
  EXPECT_EQ(to_string(Time::millis(50)), "50.000 ms");
  EXPECT_EQ(to_string(Time::seconds(50)), "50.000 s");
  EXPECT_EQ(to_string(Bytes(512)), "512 B");
  EXPECT_EQ(to_string(Bytes::kib(100)), "100.0 KiB");
  EXPECT_EQ(to_string(Bytes::mib(100)), "100.0 MiB");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(5);
  constexpr std::uint64_t kBound = 10;
  std::uint64_t counts[kBound] = {};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t v = rng.below(kBound);
    ASSERT_LT(v, kBound);
    ++counts[v];
  }
  for (std::uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kSamples / 10.0, 0.05 * kSamples / 10);
  }
}

TEST(Rng, Uniform01StaysInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Table, AlignsColumnsAndFormatsCells) {
  Table t({"P", "speedup"});
  t.row().add(1).add(1.0, 2);
  t.row().add(16).add(12.345, 2);
  t.row().add(2).skip();
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find(" P  speedup"), std::string::npos);
  EXPECT_NE(out.find("16    12.35"), std::string::npos);
  EXPECT_NE(out.find(" 2        -"), std::string::npos);
}

}  // namespace
}  // namespace acc
