// NIC-resident collective engine battery (collectives/collectives.cpp +
// inic/collective.cpp + the InicCard trigger primitives).
//
// Property grid: every fabric shape crossed with every realizable rank
// count.  For each point we assert
//   * the barrier releases no rank before all ranks have arrived,
//   * broadcast / allreduce payloads match the Host backend
//     element-for-element (broadcast bitwise; allreduce to a tight
//     tolerance, since the on-card combine order can differ from the
//     host's arrival order),
//   * the trigger tables are empty after each operation (no leaked
//     armed entries, no stranded stashed messages),
//   * no host CPU time and no interrupts anywhere in the collective.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cluster.hpp"
#include "collectives/collectives.hpp"
#include "net/topology.hpp"

namespace acc {
namespace {

struct GridPoint {
  const char* label;
  net::TopologyConfig topology;
  std::size_t np;
};

bool realizable(const net::TopologyConfig& cfg, std::size_t np) {
  try {
    net::build_topology(cfg, np);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Every (shape, np) pair from the issue grid that the topology builder
/// accepts (e.g. a 3-level fat tree exists only for np = k^3/4).
std::vector<GridPoint> grid_points() {
  const std::pair<const char*, net::TopologyConfig> shapes[] = {
      {"star", net::TopologyConfig::star()},
      {"fattree2", net::TopologyConfig::fat_tree(2)},
      {"fattree3", net::TopologyConfig::fat_tree(3)},
      {"torus2", net::TopologyConfig::torus(2)},
      {"torus3", net::TopologyConfig::torus(3)},
  };
  const std::size_t nps[] = {4, 8, 16, 27, 64};
  std::vector<GridPoint> points;
  for (const auto& [label, cfg] : shapes) {
    for (std::size_t np : nps) {
      if (realizable(cfg, np)) points.push_back({label, cfg, np});
    }
  }
  return points;
}

apps::ClusterOptions nic_options(const net::TopologyConfig& topology) {
  apps::ClusterOptions opts;
  opts.topology = topology;
  opts.collective_backend = apps::CollectiveBackend::kNic;
  return opts;
}

apps::ClusterOptions host_options(const net::TopologyConfig& topology) {
  apps::ClusterOptions opts;
  opts.topology = topology;
  return opts;
}

void expect_triggers_clear(apps::SimCluster& cluster, const char* where) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.card(i).armed_triggers(), 0u)
        << where << ": leaked armed trigger on node " << i;
    EXPECT_EQ(cluster.card(i).stashed_trigger_messages(), 0u)
        << where << ": stranded stashed message on node " << i;
  }
}

void expect_no_host_cost(apps::SimCluster& cluster, const char* where) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    hw::Cpu& cpu = cluster.node(i).cpu();
    EXPECT_EQ(cpu.total_compute_time(), Time::zero())
        << where << ": host CPU charged on node " << i;
    EXPECT_EQ(cpu.interrupts_serviced(), 0u)
        << where << ": interrupt serviced on node " << i;
  }
}

class NicCollectives : public ::testing::TestWithParam<GridPoint> {};

TEST_P(NicCollectives, BarrierReleasesNoRankBeforeAllArrive) {
  const GridPoint& point = GetParam();
  apps::SimCluster cluster(point.np, apps::Interconnect::kInicIdeal,
                           model::default_calibration(),
                           nic_options(point.topology));
  const auto result = coll::barrier(cluster);
  EXPECT_EQ(result.processors, point.np);
  // verified == the release property: first exit >= last (staggered)
  // entry, measured inside the backend.
  EXPECT_TRUE(result.verified);
  expect_triggers_clear(cluster, "barrier");
  expect_no_host_cost(cluster, "barrier");
}

TEST_P(NicCollectives, BroadcastMatchesHostBackendElementForElement) {
  const GridPoint& point = GetParam();
  apps::SimCluster nic_cluster(point.np, apps::Interconnect::kInicIdeal,
                               model::default_calibration(),
                               nic_options(point.topology));
  apps::SimCluster host_cluster(point.np, apps::Interconnect::kInicIdeal,
                                model::default_calibration(),
                                host_options(point.topology));
  const auto nic = coll::topology_broadcast(nic_cluster, 96, /*seed=*/11);
  const auto host = coll::topology_broadcast(host_cluster, 96, /*seed=*/11);
  ASSERT_TRUE(nic.verified);
  ASSERT_TRUE(host.verified);
  ASSERT_EQ(nic.data.size(), host.data.size());
  for (std::size_t p = 0; p < nic.data.size(); ++p) {
    // Broadcast only moves the root vector; bitwise equality holds.
    EXPECT_EQ(nic.data[p], host.data[p]) << "node " << p;
  }
  expect_triggers_clear(nic_cluster, "broadcast");
  expect_no_host_cost(nic_cluster, "broadcast");
}

TEST_P(NicCollectives, AllreduceMatchesHostBackendElementForElement) {
  const GridPoint& point = GetParam();
  apps::SimCluster nic_cluster(point.np, apps::Interconnect::kInicIdeal,
                               model::default_calibration(),
                               nic_options(point.topology));
  apps::SimCluster host_cluster(point.np, apps::Interconnect::kInicIdeal,
                                model::default_calibration(),
                                host_options(point.topology));
  const auto nic = coll::topology_allreduce(nic_cluster, 96, /*seed=*/13);
  const auto host = coll::topology_allreduce(host_cluster, 96, /*seed=*/13);
  ASSERT_TRUE(nic.verified);
  ASSERT_TRUE(host.verified);
  ASSERT_EQ(nic.data.size(), host.data.size());
  for (std::size_t p = 0; p < nic.data.size(); ++p) {
    ASSERT_EQ(nic.data[p].size(), host.data[p].size()) << "node " << p;
    for (std::size_t i = 0; i < nic.data[p].size(); ++i) {
      // Same addends, possibly different association order on the card.
      EXPECT_NEAR(nic.data[p][i], host.data[p][i], 1e-12)
          << "node " << p << " element " << i;
    }
  }
  expect_triggers_clear(nic_cluster, "allreduce");
  expect_no_host_cost(nic_cluster, "allreduce");
}

TEST_P(NicCollectives, BackToBackOperationsLeaveNoState) {
  const GridPoint& point = GetParam();
  apps::SimCluster cluster(point.np, apps::Interconnect::kInicIdeal,
                           model::default_calibration(),
                           nic_options(point.topology));
  EXPECT_TRUE(coll::barrier(cluster).verified);
  expect_triggers_clear(cluster, "barrier #1");
  EXPECT_TRUE(coll::topology_broadcast(cluster, 32, 3).verified);
  expect_triggers_clear(cluster, "broadcast");
  EXPECT_TRUE(coll::topology_reduce(cluster, 32, 5).verified);
  expect_triggers_clear(cluster, "reduce");
  EXPECT_TRUE(coll::topology_allreduce(cluster, 32, 7).verified);
  expect_triggers_clear(cluster, "allreduce");
  EXPECT_TRUE(coll::barrier(cluster).verified);
  expect_triggers_clear(cluster, "barrier #2");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NicCollectives, ::testing::ValuesIn(grid_points()),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      return std::string(info.param.label) + "_np" +
             std::to_string(info.param.np);
    });

TEST(NicCollectiveConfig, NicBackendRequiresInicInterconnect) {
  apps::ClusterOptions opts;
  opts.collective_backend = apps::CollectiveBackend::kNic;
  EXPECT_THROW(apps::SimCluster(4, apps::Interconnect::kGigabitTcp,
                                model::default_calibration(), opts),
               std::invalid_argument);
  EXPECT_NO_THROW(apps::SimCluster(4, apps::Interconnect::kInicIdeal,
                                   model::default_calibration(), opts));
}

TEST(NicCollectiveConfig, NicBackendRunsOnThePrototypeCardToo) {
  apps::ClusterOptions opts;
  opts.collective_backend = apps::CollectiveBackend::kNic;
  apps::SimCluster cluster(8, apps::Interconnect::kInicPrototype,
                           model::default_calibration(), opts);
  EXPECT_TRUE(coll::barrier(cluster).verified);
  EXPECT_TRUE(coll::topology_allreduce(cluster, 64, 9).verified);
  expect_triggers_clear(cluster, "prototype");
}

TEST(NicCollectiveConfig, ReduceLeavesResultOnlyAtRoot) {
  apps::ClusterOptions opts;
  opts.collective_backend = apps::CollectiveBackend::kNic;
  apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  const auto result = coll::topology_reduce(cluster, 48, 17);
  ASSERT_TRUE(result.verified);
  ASSERT_EQ(result.data.size(), 8u);
  EXPECT_EQ(result.data[0].size(), 48u);  // root is physical node 0
  for (std::size_t p = 1; p < 8; ++p) {
    EXPECT_TRUE(result.data[p].empty()) << "node " << p;
  }
}

}  // namespace
}  // namespace acc
