// Timing-only FFT/sort runs against their closed-form serial baselines
// (series shapes, determinism) and instrumentation reports (accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/sort_app.hpp"
#include "core/report.hpp"
#include "model/calibration.hpp"

namespace acc::core {
namespace {

apps::FftRunResult fft_run(apps::Interconnect ic, std::size_t n,
                           std::size_t p) {
  apps::SimCluster cluster(p, ic);
  return apps::run_parallel_fft(cluster, n, {.verify = false});
}

apps::SortRunResult sort_run(apps::Interconnect ic, std::size_t keys,
                             std::size_t p) {
  apps::SimCluster cluster(p, ic);
  return apps::run_parallel_sort(cluster, keys, {.verify = false});
}

TEST(Experiment, FftSeriesIsMonotoneForInic) {
  const Time serial =
      apps::run_serial_fft(model::default_calibration(), 256).total;
  std::vector<Time> totals;
  for (std::size_t p : {1, 2, 4, 8}) {
    totals.push_back(fft_run(apps::Interconnect::kInicIdeal, 256, p).total);
  }
  EXPECT_NEAR(serial / totals[0], 1.0, 0.02);
  for (std::size_t i = 1; i < totals.size(); ++i) {
    EXPECT_GT(serial / totals[i], serial / totals[i - 1]);
    EXPECT_LT(totals[i], totals[i - 1]);
  }
}

TEST(Experiment, SortSeriesSuperlinearOnInic) {
  const std::size_t keys = std::size_t{1} << 24;
  const Time serial =
      apps::run_serial_sort(model::default_calibration(), keys).total;
  EXPECT_GT(serial / sort_run(apps::Interconnect::kInicIdeal, keys, 4).total,
            4.0);
  EXPECT_GT(serial / sort_run(apps::Interconnect::kInicIdeal, keys, 8).total,
            8.0);
}

TEST(Experiment, RunsAreDeterministic) {
  // The whole simulator is seeded and event ordering is total: identical
  // runs must produce bit-identical times.
  const auto a = fft_run(apps::Interconnect::kGigabitTcp, 256, 8);
  const auto b = fft_run(apps::Interconnect::kGigabitTcp, 256, 8);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.transpose, b.transpose);

  const auto sa = sort_run(apps::Interconnect::kInicPrototype,
                           std::size_t{1} << 22, 8);
  const auto sb = sort_run(apps::Interconnect::kInicPrototype,
                           std::size_t{1} << 22, 8);
  EXPECT_EQ(sa.total, sb.total);
}

TEST(Report, TcpRunAccountsProtocolWork) {
  apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp);
  apps::FftRunOptions opts;
  opts.verify = false;
  run_parallel_fft(cluster, 256, opts);
  const auto report = collect_report(cluster);

  ASSERT_EQ(report.nodes.size(), 4u);
  EXPECT_GT(report.total_interrupts(), 0u);
  EXPECT_GT(report.total_protocol_time(), Time::zero());
  EXPECT_GT(report.frames_forwarded, 0u);
  EXPECT_EQ(report.frames_dropped, 0u);
  for (const auto& n : report.nodes) {
    EXPECT_GT(n.compute_time, Time::zero());
    EXPECT_GT(n.pci_bytes.count(), 0u);
    EXPECT_GE(n.cpu_utilization, 0.0);
    EXPECT_LE(n.cpu_utilization, 1.0);
    EXPECT_EQ(n.inic_bursts, 0u);  // standard NICs
  }
}

TEST(Report, InicRunShowsZeroHostProtocolWork) {
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal);
  apps::FftRunOptions opts;
  opts.verify = false;
  run_parallel_fft(cluster, 256, opts);
  const auto report = collect_report(cluster);

  EXPECT_EQ(report.total_interrupts(), 0u);
  EXPECT_EQ(report.total_protocol_time(), Time::zero());
  for (const auto& n : report.nodes) {
    EXPECT_GT(n.inic_bursts, 0u);
    EXPECT_GT(n.inic_bytes_to_host.count(), 0u);
    EXPECT_EQ(n.inic_retransmits, 0u);  // lossless fabric
  }
}

TEST(Report, PrintsOneRowPerNodePlusFabricLine) {
  apps::SimCluster cluster(3, apps::Interconnect::kGigabitTcp);
  apps::FftRunOptions opts;
  opts.verify = false;
  // 3 does not divide 256? 256 % 3 != 0 -> use a sort run instead... P
  // must be a power of two for sorts; use alltoall-free FFT at n=255?
  // Simplest valid workload on 3 nodes: none of the apps; just collect
  // the empty report and print it.
  const auto report = collect_report(cluster);
  std::ostringstream os;
  report.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("node"), std::string::npos);
  EXPECT_NE(out.find("fabric:"), std::string::npos);
  // Header + 3 node rows + rule + fabric line.
  EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')), 6);
}

}  // namespace
}  // namespace acc::core
