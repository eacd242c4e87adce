// Collective operations: functional correctness on both transports,
// barrier semantics, and the INIC's latency/CPU advantages.
#include "collectives/collectives.hpp"

#include <gtest/gtest.h>

namespace acc::coll {
namespace {

struct CollCase {
  std::size_t p;
  apps::Interconnect ic;
};

class Collectives : public ::testing::TestWithParam<CollCase> {};

TEST_P(Collectives, BarrierHoldsEveryRank) {
  const auto [p, ic] = GetParam();
  apps::SimCluster cluster(p, ic);
  const auto r = barrier(cluster);
  EXPECT_TRUE(r.verified) << to_string(ic) << " P=" << p;
  if (p > 1) {
    EXPECT_GT(r.total, Time::zero());
  }
}

TEST_P(Collectives, BroadcastReachesEveryRank) {
  const auto [p, ic] = GetParam();
  apps::SimCluster cluster(p, ic);
  const auto r = topology_broadcast(cluster, 1024);
  EXPECT_TRUE(r.verified) << to_string(ic) << " P=" << p;
}

TEST_P(Collectives, ReduceSumsAllContributions) {
  const auto [p, ic] = GetParam();
  apps::SimCluster cluster(p, ic);
  const auto r = topology_reduce(cluster, 1024);
  EXPECT_TRUE(r.verified) << to_string(ic) << " P=" << p;
}

TEST_P(Collectives, AllreduceLeavesSumEverywhere) {
  const auto [p, ic] = GetParam();
  apps::SimCluster cluster(p, ic);
  const auto r = topology_allreduce(cluster, 512);
  EXPECT_TRUE(r.verified) << to_string(ic) << " P=" << p;
}

TEST_P(Collectives, AlltoallDeliversEveryBlock) {
  const auto [p, ic] = GetParam();
  apps::SimCluster cluster(p, ic);
  const auto r = alltoall(cluster, 256);
  EXPECT_TRUE(r.verified) << to_string(ic) << " P=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Collectives,
    ::testing::Values(CollCase{1, apps::Interconnect::kGigabitTcp},
                      CollCase{2, apps::Interconnect::kGigabitTcp},
                      CollCase{4, apps::Interconnect::kGigabitTcp},
                      CollCase{8, apps::Interconnect::kGigabitTcp},
                      CollCase{5, apps::Interconnect::kGigabitTcp},
                      CollCase{1, apps::Interconnect::kInicIdeal},
                      CollCase{2, apps::Interconnect::kInicIdeal},
                      CollCase{4, apps::Interconnect::kInicIdeal},
                      CollCase{8, apps::Interconnect::kInicIdeal},
                      CollCase{5, apps::Interconnect::kInicIdeal},
                      CollCase{16, apps::Interconnect::kInicIdeal},
                      CollCase{4, apps::Interconnect::kInicPrototype},
                      CollCase{4, apps::Interconnect::kFastEthernetTcp}));

TEST(CollectivesTiming, InicBarrierIsFasterThanTcp) {
  apps::SimCluster tcp(8, apps::Interconnect::kGigabitTcp);
  const auto r_tcp = barrier(tcp);
  apps::SimCluster inic(8, apps::Interconnect::kInicIdeal);
  const auto r_inic = barrier(inic);
  // Card-to-card tokens never take a host interrupt; TCP barriers pay
  // the full coalesced-interrupt receive path every round.
  EXPECT_LT(r_inic.total.as_seconds(), r_tcp.total.as_seconds());
}

TEST(CollectivesTiming, InicReduceChargesNoHostCombine) {
  apps::SimCluster inic(8, apps::Interconnect::kInicIdeal);
  const auto r = topology_reduce(inic, 1 << 16);
  ASSERT_TRUE(r.verified);
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(inic.node(p).cpu().total_compute_time(), Time::zero());
    EXPECT_EQ(inic.node(p).cpu().interrupts_serviced(), 0u);
  }
}

TEST(CollectivesTiming, TcpReduceChargesHostCombine) {
  apps::SimCluster tcp(8, apps::Interconnect::kGigabitTcp);
  const auto r = topology_reduce(tcp, 1 << 16);
  ASSERT_TRUE(r.verified);
  // Rank 0 combines at least one partial on the host.
  EXPECT_GT(tcp.node(0).cpu().total_compute_time(), Time::zero());
}

TEST(CollectivesTiming, HostCombineTimeScalesWithElements) {
  apps::SimCluster cluster(2, apps::Interconnect::kGigabitTcp);
  const Time small = host_combine_time(cluster, 0, 1024);
  const Time large = host_combine_time(cluster, 0, 1024 * 64);
  EXPECT_GT(large.as_seconds(), 30.0 * small.as_seconds());
}

TEST(CollectivesTiming, AlltoallInicBeatsTcp) {
  apps::SimCluster tcp(8, apps::Interconnect::kGigabitTcp);
  const auto r_tcp = alltoall(tcp, 1 << 14);
  apps::SimCluster inic(8, apps::Interconnect::kInicIdeal);
  const auto r_inic = alltoall(inic, 1 << 14);
  EXPECT_LT(r_inic.total.as_seconds(), r_tcp.total.as_seconds());
}

}  // namespace
}  // namespace acc::coll
