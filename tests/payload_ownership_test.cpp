// Payload ownership on the message path.
//
// A message's payload moves from sender to receiver: neither TCP
// reassembly nor the card's stream assembly copies it, also when the
// first burst (which carries the payload) is lost and retransmitted, or
// retransmitted after the receiver has already taken it.  The one copy
// on purpose is SimCluster::transfer's re-carry copy under
// degraded_fallback.  Tree collectives share one read-only buffer per
// message, and every rank still ends with a result buffer of its own.
//
// The multi-LP cases run the senders and receivers on different worker
// threads, so under ThreadSanitizer they check that payloads and shared
// buffers cross LPs without a race.
#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "collectives/collectives.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "proto/message.hpp"
#include "sim/process.hpp"

namespace acc {
namespace {

constexpr std::uint64_t kTag = 7;

/// Payload that counts how often it, or any copy of it, is copied.
/// Moves are free and uncounted.
struct Counted {
  explicit Counted(int v)
      : value(v), copies(std::make_shared<std::atomic<int>>(0)) {}
  Counted(const Counted& other) : value(other.value), copies(other.copies) {
    copies->fetch_add(1, std::memory_order_relaxed);
  }
  Counted& operator=(const Counted& other) {
    value = other.value;
    copies = other.copies;
    copies->fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Counted(Counted&&) noexcept = default;
  Counted& operator=(Counted&&) noexcept = default;

  int value;
  std::shared_ptr<std::atomic<int>> copies;
};

/// Carries one message of `size` bytes from `src` to `dst` through
/// SimCluster::transfer and returns it as read from inbox(dst).
proto::Message carry(apps::SimCluster& cluster, int src, int dst, Bytes size,
                     std::any payload) {
  sim::ProcessGroup group(*cluster.parallel());
  group.spawn_on(cluster.node_lp(static_cast<std::size_t>(src)),
                 cluster.transfer(src, dst, size, kTag, std::move(payload)));
  group.join();
  auto& inbox = cluster.inbox(static_cast<std::size_t>(dst));
  EXPECT_EQ(inbox.size(), 1u) << "exactly one delivery";
  std::optional<proto::Message> msg = inbox.try_recv();
  if (!msg) {
    ADD_FAILURE() << "no message delivered to node " << dst;
    return {};
  }
  return std::move(*msg);
}

/// Sends a fresh Counted through carry() and returns how often it was
/// copied on the way (-1 when the payload did not arrive intact).
int copies_on_the_way(apps::SimCluster& cluster, int src, int dst,
                      Bytes size) {
  Counted sent(41 + dst);
  const auto copies = sent.copies;
  proto::Message msg = carry(cluster, src, dst, size, std::move(sent));
  EXPECT_EQ(msg.src, src);
  EXPECT_EQ(msg.tag, kTag);
  const Counted* got = std::any_cast<Counted>(&msg.payload);
  if (got == nullptr || got->value != 41 + dst) {
    ADD_FAILURE() << "payload lost or wrong on the way to node " << dst;
    return -1;
  }
  return copies->load();
}

apps::ClusterOptions with_retransmit() {
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;
  return opts;
}

TEST(PayloadOwnership, GigabitTcpMovesThePayload) {
  apps::SimCluster cluster(2, apps::Interconnect::kGigabitTcp);
  // Several bursts: only the first carries the payload.
  EXPECT_EQ(copies_on_the_way(cluster, 0, 1, Bytes::kib(64)), 0);
}

TEST(PayloadOwnership, InicIdealMovesThePayload) {
  apps::SimCluster cluster(2, apps::Interconnect::kInicIdeal);
  EXPECT_EQ(copies_on_the_way(cluster, 0, 1, Bytes::kib(64)), 0);
}

TEST(PayloadOwnership, DegradedFallbackKeepsExactlyTheRecarryCopy) {
  apps::ClusterOptions opts;
  opts.degraded_fallback = true;
  apps::SimCluster cluster(2, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  // Healthy cards: the card carries the message, and transfer() holds
  // one copy in case it must re-carry it over TCP.
  EXPECT_EQ(copies_on_the_way(cluster, 0, 1, Bytes::kib(64)), 1);
  EXPECT_EQ(cluster.fallback_transfers(), 0u);
}

TEST(PayloadOwnership, InicLostHeaderBurstIsRetransmittedWithItsPayload) {
  apps::SimCluster cluster(2, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), with_retransmit());
  // Node 1's link is dark from the start, so the one burst of the
  // message — its header, carrying the payload — dies on the way;
  // go-back-N resends it after the window.
  fault::FaultPlan plan;
  plan.with_link_down(1, Time::zero(), Time::millis(3));
  fault::FaultInjector injector(cluster, plan);
  EXPECT_EQ(copies_on_the_way(cluster, 0, 1, Bytes::kib(1)), 0);
  EXPECT_GT(cluster.network().frames_dropped_link_down(), 0u);
  EXPECT_GT(cluster.card(0).retransmits(), 0u);
}

TEST(PayloadOwnership, InicHeaderRetransmittedAfterDeliveryIsNotReread) {
  // A clean run fixes when the message lands on card 1; that is also
  // when card 1 sends the burst's credit back.
  Time landed = Time::zero();
  {
    apps::SimCluster probe(2, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), with_retransmit());
    landed = carry(probe, 0, 1, Bytes::kib(1), std::any{}).delivered_at;
  }
  apps::SimCluster cluster(2, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), with_retransmit());
  // Node 0's link goes dark once the burst has landed, so the credit is
  // lost and the sender resends the header whose payload card 1 has
  // already taken.
  fault::FaultPlan plan;
  plan.with_link_down(0, landed, Time::millis(3));
  fault::FaultInjector injector(cluster, plan);
  EXPECT_EQ(copies_on_the_way(cluster, 0, 1, Bytes::kib(1)), 0);
  EXPECT_GT(cluster.card(0).retransmits(), 0u);
  EXPECT_GT(cluster.card(1).duplicates_dropped(), 0u);
}

TEST(PayloadOwnership, TcpFirstBurstRetransmittedAfterDeliveryIsNotReread) {
  Time landed = Time::zero();
  {
    apps::SimCluster probe(2, apps::Interconnect::kGigabitTcp);
    landed = carry(probe, 0, 1, Bytes(1000), std::any{}).delivered_at;
  }
  apps::SimCluster cluster(2, apps::Interconnect::kGigabitTcp);
  // The ACK of the message's only burst is lost: the sender times out
  // and resends the burst with its header, which the receiver must treat
  // as a duplicate without touching the payload it already delivered.
  fault::FaultPlan plan;
  plan.with_link_down(0, landed, Time::millis(50));
  fault::FaultInjector injector(cluster, plan);
  EXPECT_EQ(copies_on_the_way(cluster, 0, 1, Bytes(1000)), 0);
  EXPECT_GT(cluster.tcp(0).retransmits(), 0u);
}

TEST(PayloadOwnership, CrossLpTransfersMoveThePayload) {
  for (const auto ic :
       {apps::Interconnect::kGigabitTcp, apps::Interconnect::kInicIdeal}) {
    apps::ClusterOptions opts;
    opts.topology = net::TopologyConfig::fat_tree(2);
    opts.engine_threads = 2;
    apps::SimCluster cluster(16, ic, model::default_calibration(), opts);
    ASSERT_NE(cluster.node_lp(0), cluster.node_lp(15)) << apps::to_string(ic);
    EXPECT_EQ(copies_on_the_way(cluster, 0, 15, Bytes::kib(64)), 0)
        << apps::to_string(ic);
  }
}

// ---------------------------------------------------------------------
// Tree collectives: shared buffers on the wire, private results.
// ---------------------------------------------------------------------

struct TreeCase {
  const char* label;
  apps::Interconnect ic;
  apps::CollectiveBackend backend;
  net::TopologyConfig topology;
  std::size_t np;
  std::size_t threads;
};

std::string tree_case_name(const ::testing::TestParamInfo<TreeCase>& info) {
  return info.param.label;
}

class CollectiveResults : public ::testing::TestWithParam<TreeCase> {
 protected:
  apps::SimCluster make_cluster() const {
    const TreeCase& c = GetParam();
    apps::ClusterOptions opts;
    opts.topology = c.topology;
    opts.collective_backend = c.backend;
    opts.engine_threads = c.threads;
    return apps::SimCluster(c.np, c.ic, model::default_calibration(), opts);
  }
  /// The multi-LP cases must really run on more than one LP.
  void expect_partition(const apps::SimCluster& cluster) const {
    if (GetParam().threads > 1) {
      EXPECT_STREQ(cluster.partition_reason(), "per-switch");
    }
  }
};

/// Every rank ends with a bitwise copy of the root's result, in a buffer
/// no other rank shares.
void expect_private_copies(const coll::CollectiveResult& result,
                           std::size_t elements) {
  ASSERT_TRUE(result.verified);
  const std::vector<double>& root = result.data.at(0);  // node 0 is the root
  ASSERT_EQ(root.size(), elements);
  std::set<const double*> buffers;
  for (std::size_t i = 0; i < result.data.size(); ++i) {
    EXPECT_EQ(result.data[i], root) << "node " << i;
    EXPECT_TRUE(buffers.insert(result.data[i].data()).second)
        << "node " << i << " shares its result buffer";
  }
}

TEST_P(CollectiveResults, AllreduceResultsAreEqualAndPrivate) {
  apps::SimCluster cluster = make_cluster();
  expect_partition(cluster);
  const auto result = coll::topology_allreduce(cluster, 1024);
  expect_private_copies(result, 1024);
}

TEST_P(CollectiveResults, BroadcastResultsAreEqualAndPrivate) {
  apps::SimCluster cluster = make_cluster();
  expect_partition(cluster);
  const auto result = coll::topology_broadcast(cluster, 1024);
  expect_private_copies(result, 1024);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CollectiveResults,
    ::testing::Values(
        TreeCase{"host_tcp_star", apps::Interconnect::kGigabitTcp,
                 apps::CollectiveBackend::kHost, net::TopologyConfig::star(),
                 8, 1},
        TreeCase{"host_inic_star", apps::Interconnect::kInicIdeal,
                 apps::CollectiveBackend::kHost, net::TopologyConfig::star(),
                 8, 1},
        TreeCase{"nic_star", apps::Interconnect::kInicIdeal,
                 apps::CollectiveBackend::kNic, net::TopologyConfig::star(),
                 8, 1},
        TreeCase{"host_inic_fattree_2lp", apps::Interconnect::kInicIdeal,
                 apps::CollectiveBackend::kHost,
                 net::TopologyConfig::fat_tree(2), 16, 2},
        TreeCase{"nic_fattree_2lp", apps::Interconnect::kInicIdeal,
                 apps::CollectiveBackend::kNic,
                 net::TopologyConfig::fat_tree(2), 16, 2}),
    tree_case_name);

}  // namespace
}  // namespace acc
