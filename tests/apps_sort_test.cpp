// End-to-end distributed integer-sort runs: correctness on every
// interconnect (the nodes' outputs, in node order, must equal std::sort
// of all input keys; checked by algo::is_sorted_permutation_of), plus
// the paper's timing claims —
// superlinear INIC speedup from absorbed bucket sorting, prototype
// between GigE and ideal.
#include "apps/sort_app.hpp"

#include <gtest/gtest.h>

namespace acc::apps {
namespace {

struct SortCase {
  std::size_t keys;
  std::size_t p;
  Interconnect ic;
};

class DistributedSort : public ::testing::TestWithParam<SortCase> {};

TEST_P(DistributedSort, ProducesGloballySortedOutput) {
  const auto [keys, p, ic] = GetParam();
  SimCluster cluster(p, ic);
  SortRunOptions opts;
  opts.verify = true;
  opts.cache_buckets = 64;
  const SortRunResult result = run_parallel_sort(cluster, keys, opts);
  EXPECT_TRUE(result.verified)
      << to_string(ic) << " keys=" << keys << " P=" << p;
  EXPECT_GT(result.total, Time::zero());
  EXPECT_GT(result.count_sort, Time::zero());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistributedSort,
    ::testing::Values(
        SortCase{1 << 14, 1, Interconnect::kGigabitTcp},
        SortCase{1 << 14, 2, Interconnect::kGigabitTcp},
        SortCase{1 << 14, 4, Interconnect::kGigabitTcp},
        SortCase{1 << 14, 8, Interconnect::kGigabitTcp},
        SortCase{1 << 14, 4, Interconnect::kFastEthernetTcp},
        SortCase{1 << 14, 2, Interconnect::kInicIdeal},
        SortCase{1 << 14, 4, Interconnect::kInicIdeal},
        SortCase{1 << 14, 8, Interconnect::kInicIdeal},
        SortCase{1 << 14, 4, Interconnect::kInicPrototype},
        SortCase{1 << 14, 8, Interconnect::kInicPrototype},
        SortCase{12345, 4, Interconnect::kInicIdeal},   // non-divisible
        SortCase{12345, 4, Interconnect::kGigabitTcp},
        SortCase{1 << 18, 16, Interconnect::kInicIdeal}));

TEST(DistributedSortTiming, InicAbsorbsBucketSortTime) {
  // Timing-only run at the paper's scale: on the ideal INIC the host
  // does no bucket sorting at all; on TCP it pays two full passes.
  SortRunOptions opts;
  opts.verify = false;
  const std::size_t keys = std::size_t{1} << 25;

  SimCluster gige(8, Interconnect::kGigabitTcp);
  const auto r_gige = run_parallel_sort(gige, keys, opts);
  SimCluster inic(8, Interconnect::kInicIdeal);
  const auto r_inic = run_parallel_sort(inic, keys, opts);

  EXPECT_GT(r_gige.bucket_phase1, Time::zero());
  EXPECT_GT(r_gige.bucket_phase2, Time::zero());
  EXPECT_EQ(r_inic.bucket_phase1, Time::zero());
  EXPECT_EQ(r_inic.bucket_phase2, Time::zero());
  EXPECT_LT(r_inic.total.as_seconds(), r_gige.total.as_seconds());
  // Count-sort time is the same on both (same host, same keys).
  EXPECT_NEAR(r_inic.count_sort.as_seconds(), r_gige.count_sort.as_seconds(),
              1e-9);
}

TEST(DistributedSortTiming, PrototypePaysSecondPhaseOnHost) {
  SortRunOptions opts;
  opts.verify = false;
  const std::size_t keys = std::size_t{1} << 24;

  SimCluster proto(8, Interconnect::kInicPrototype);
  const auto r_proto = run_parallel_sort(proto, keys, opts);
  SimCluster ideal(8, Interconnect::kInicIdeal);
  const auto r_ideal = run_parallel_sort(ideal, keys, opts);

  EXPECT_EQ(r_proto.bucket_phase1, Time::zero());   // send side still free
  EXPECT_GT(r_proto.bucket_phase2, Time::zero());   // host refines 16 -> N
  EXPECT_GT(r_proto.total.as_seconds(), r_ideal.total.as_seconds());
}

TEST(DistributedSortTiming, InicSpeedupIsSuperlinear) {
  // Figure 5(b): superlinear INIC speedups, "attributable to the
  // elimination of the time for bucket sorting the data".
  SortRunOptions opts;
  opts.verify = false;
  const std::size_t keys = std::size_t{1} << 25;
  const auto serial = run_serial_sort(model::default_calibration(), keys);

  SimCluster c8(8, Interconnect::kInicIdeal);
  const auto r8 = run_parallel_sort(c8, keys, opts);
  const double speedup = serial.total / r8.total;
  EXPECT_GT(speedup, 8.0) << "INIC sort speedup should exceed P";
  EXPECT_LT(speedup, 40.0);
}

TEST(DistributedSortTiming, GigabitSpeedupIsSublinear) {
  SortRunOptions opts;
  opts.verify = false;
  const std::size_t keys = std::size_t{1} << 25;
  const auto serial = run_serial_sort(model::default_calibration(), keys);

  SimCluster c8(8, Interconnect::kGigabitTcp);
  const auto r8 = run_parallel_sort(c8, keys, opts);
  const double speedup = serial.total / r8.total;
  EXPECT_LT(speedup, 8.0);
  EXPECT_GT(speedup, 1.5);
}

TEST(DistributedSort, RejectsNonPowerOfTwoP) {
  SimCluster cluster(3, Interconnect::kGigabitTcp);
  EXPECT_THROW(run_parallel_sort(cluster, 1000), std::invalid_argument);
}

TEST(DistributedSort, SerialReferenceBreakdownAddsUp) {
  const auto serial =
      run_serial_sort(model::default_calibration(), std::size_t{1} << 25);
  EXPECT_EQ(serial.total,
            serial.bucket_phase1 + serial.bucket_phase2 + serial.count_sort);
  // The paper: "over 5 seconds" of bucket sorting in the serial
  // implementation (on 2^25 keys).
  const double bucket_seconds =
      (serial.bucket_phase1 + serial.bucket_phase2).as_seconds();
  EXPECT_GT(bucket_seconds, 4.0);
  EXPECT_LT(bucket_seconds, 8.0);
}

}  // namespace
}  // namespace acc::apps
