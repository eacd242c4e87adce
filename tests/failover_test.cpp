// End-to-end failover battery: permanent interior-link failures
// (FaultPlan::with_interior_link_failed) against live collectives and
// bulk-transfer workloads on every multi-hop fabric, with adaptive
// routing on and the degraded TCP fallback OFF — recovery must come from
// the fabric re-convergence + go-back-N reroute escalation alone.
//
// Contract under test (the PR's acceptance bar):
//   * collectives complete and verify through single and double cuts,
//   * no card ever declares a peer unreachable (the reroute grant path
//     re-arms go-back-N instead),
//   * payloads are bit-identical to the fault-free run (broadcast) and
//     replay bit-identically for the same seeds (allreduce, whose
//     combine order is arrival order),
//   * the whole faulted run — fault edges, re-convergence instants,
//     reroute grants — replays digest-identically,
// plus targeted tests of the collective engine's tree repair: a
// mid-collective dead parent re-parents its orphaned subtree onto the
// grandparent, and a barrier or an allreduce completes without the dead
// rank.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "collectives/collectives.hpp"
#include "fault/fault.hpp"
#include "inic/collective.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/process.hpp"

namespace acc {
namespace {

apps::ClusterOptions failover_options(const net::TopologyConfig& topo,
                                      apps::CollectiveBackend backend) {
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;  // go-back-N is the recovery engine
  opts.inic_max_retries = 8;
  opts.degraded_fallback = false;  // fabric failover must carry the day
  opts.adaptive_routing = true;
  opts.topology = topo;
  opts.collective_backend = backend;
  return opts;
}

/// Interior links incident to host 0's attach switch, normalized and
/// deduplicated — the cut candidates every scenario draws from (host 0's
/// off-switch traffic is guaranteed to cross them).
std::vector<std::pair<int, int>> attach_uplinks(const net::Fabric& net) {
  const auto& plan = net.plan();
  const int sw = plan.hosts.front().sw;
  std::vector<std::pair<int, int>> links;
  for (const auto& port : plan.switches[static_cast<std::size_t>(sw)].ports) {
    if (port.peer_switch < 0) continue;
    const auto key = std::make_pair(std::min(sw, port.peer_switch),
                                    std::max(sw, port.peer_switch));
    if (std::find(links.begin(), links.end(), key) == links.end()) {
      links.push_back(key);
    }
  }
  return links;
}

struct Scenario {
  const char* label;
  net::TopologyConfig topo;
  std::size_t np;
  int cuts;  // simultaneous permanent interior-link failures
};

std::vector<Scenario> battery() {
  return {
      {"fattree2x16", net::TopologyConfig::fat_tree(2), 16, 1},
      {"fattree2x16-double", net::TopologyConfig::fat_tree(2), 16, 2},
      {"fattree3x16", net::TopologyConfig::fat_tree(3), 16, 1},
      {"torus2x8", net::TopologyConfig::torus(2), 8, 1},
      {"torus3x8-double", net::TopologyConfig::torus(3, 2, 2, 2), 8, 2},
  };
}

constexpr std::size_t kElements = 256;

struct FailoverOutcome {
  bool ar_ok = false;
  bool bc_ok = false;
  std::vector<std::vector<double>> ar_data;
  std::vector<std::vector<double>> bc_data;
  Time end = Time::zero();
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
  std::uint64_t route_epoch = 0;
  std::uint64_t reroute_grants = 0;
  std::uint64_t peers_lost = 0;
  std::uint64_t fallback = 0;
};

/// Healthy end-to-end timeline (allreduce + broadcast back-to-back) per
/// (scenario, backend) — the yardstick the cut instants are placed
/// against.
Time clean_timeline(const Scenario& sc, apps::CollectiveBackend backend) {
  static std::map<std::string, Time> cache;
  const std::string key =
      std::string(sc.label) + "/" + std::to_string(static_cast<int>(backend));
  auto it = cache.find(key);
  if (it == cache.end()) {
    apps::SimCluster cluster(sc.np, apps::Interconnect::kInicIdeal,
                             model::default_calibration(),
                             failover_options(sc.topo, backend));
    EXPECT_TRUE(coll::topology_allreduce(cluster, kElements, 5).verified);
    EXPECT_TRUE(coll::topology_broadcast(cluster, kElements, 6).verified);
    it = cache.emplace(key, cluster.engine().now()).first;
  }
  return it->second;
}

FailoverOutcome run_failover(const Scenario& sc,
                             apps::CollectiveBackend backend, bool faulted) {
  apps::SimCluster cluster(sc.np, apps::Interconnect::kInicIdeal,
                           model::default_calibration(),
                           failover_options(sc.topo, backend));
  cluster.tracer().enable(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(5));  // hang backstop
  std::optional<fault::FaultInjector> injector;
  if (faulted) {
    const Time t = clean_timeline(sc, backend);
    const auto links = attach_uplinks(cluster.network());
    // Never partition host 0: at least one uplink must survive.
    EXPECT_GT(links.size(), static_cast<std::size_t>(sc.cuts))
        << sc.label << ": cut plan would strand the attach switch";
    fault::FaultPlan plan;
    for (int c = 0; c < sc.cuts; ++c) {
      // First cut mid-allreduce, second (if any) a beat later — after
      // the first re-convergence has moved traffic onto the alternate.
      plan.with_interior_link_failed(links[static_cast<std::size_t>(c)].first,
                                     links[static_cast<std::size_t>(c)].second,
                                     t * (0.25 + 0.15 * c));
    }
    injector.emplace(cluster, plan);
  }

  const auto ar = coll::topology_allreduce(cluster, kElements, 5);
  const auto bc = coll::topology_broadcast(cluster, kElements, 6);

  FailoverOutcome out;
  out.ar_ok = ar.verified;
  out.bc_ok = bc.verified;
  out.ar_data = ar.data;
  out.bc_data = bc.data;
  out.end = cluster.engine().now();
  out.digest = cluster.tracer().digest();
  out.records = cluster.tracer().records_emitted();
  out.route_epoch = cluster.network().route_epoch();
  out.fallback = cluster.fallback_transfers();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    out.peers_lost += cluster.card(i).peers_lost();
    out.reroute_grants += cluster.card(i).reroutes();
  }
  return out;
}

class FailoverBattery
    : public ::testing::TestWithParam<apps::CollectiveBackend> {};

TEST_P(FailoverBattery, CollectivesSurvivePermanentLinkCuts) {
  for (const Scenario& sc : battery()) {
    SCOPED_TRACE(sc.label);
    const auto clean = run_failover(sc, GetParam(), /*faulted=*/false);
    const auto cut = run_failover(sc, GetParam(), /*faulted=*/true);

    // Both ops complete and verify against the serial reference.
    EXPECT_TRUE(cut.ar_ok);
    EXPECT_TRUE(cut.bc_ok);
    // Nobody gave up: the reroute escalation re-armed every dry retry
    // budget, and no transfer needed a fallback plane (there is none).
    EXPECT_EQ(cut.peers_lost, 0u);
    EXPECT_EQ(cut.fallback, 0u);
    // The routing plane actually re-converged (at least once per cut).
    EXPECT_GE(cut.route_epoch, static_cast<std::uint64_t>(sc.cuts));
    EXPECT_EQ(clean.route_epoch, 0u);
    // Broadcast moves root's bits unchanged: every node's payload is
    // bit-identical to the fault-free run.
    EXPECT_EQ(cut.bc_data, clean.bc_data);
    // Allreduce combines in arrival order, so the faulted sum may
    // differ from the clean run in the last ulp — but never more.
    ASSERT_EQ(cut.ar_data.size(), clean.ar_data.size());
    for (std::size_t p = 0; p < clean.ar_data.size(); ++p) {
      ASSERT_EQ(cut.ar_data[p].size(), clean.ar_data[p].size());
      for (std::size_t e = 0; e < clean.ar_data[p].size(); ++e) {
        EXPECT_NEAR(cut.ar_data[p][e], clean.ar_data[p][e],
                    1e-9 * std::max(1.0, std::abs(clean.ar_data[p][e])))
            << "node " << p << " element " << e;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FailoverBattery,
                         ::testing::Values(apps::CollectiveBackend::kNic,
                                           apps::CollectiveBackend::kHost),
                         [](const auto& info) {
                           return info.param ==
                                          apps::CollectiveBackend::kNic
                                      ? "Nic"
                                      : "Host";
                         });

TEST(Failover, FaultedRunReplaysDigestIdentically) {
  const Scenario sc = battery()[1];  // fattree2 x16, double cut
  const auto a = run_failover(sc, apps::CollectiveBackend::kNic, true);
  const auto b = run_failover(sc, apps::CollectiveBackend::kNic, true);
  EXPECT_EQ(a.end, b.end);
  // Same seeds + same fault plan => the allreduce results are bitwise
  // identical, not merely close: determinism covers the recovery path.
  EXPECT_EQ(a.ar_data, b.ar_data);
  EXPECT_EQ(a.bc_data, b.bc_data);
  ASSERT_GT(a.records, 0u);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Failover, BulkTransfersCompleteBitCorrectThroughACut) {
  // The FFT's all-to-all transposes are the bulk-transfer workload: a
  // permanent spine cut mid-run must cost retransmits and a reroute,
  // never correctness.
  auto run_once = [](bool faulted) {
    apps::ClusterOptions opts = failover_options(
        net::TopologyConfig::fat_tree(2), apps::CollectiveBackend::kHost);
    apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), opts);
    cluster.engine().set_time_budget(Time::seconds(5));
    std::optional<fault::FaultInjector> injector;
    if (faulted) {
      const auto links = attach_uplinks(cluster.network());
      fault::FaultPlan plan;
      plan.with_interior_link_failed(links.front().first, links.front().second,
                                     Time::millis(1.0));
      injector.emplace(cluster, plan);
    }
    apps::FftRunOptions fft;
    fft.verify = true;
    const auto r = apps::run_parallel_fft(cluster, 128, fft);
    EXPECT_TRUE(r.verified);
    std::uint64_t peers_lost = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      peers_lost += cluster.card(i).peers_lost();
    }
    EXPECT_EQ(peers_lost, 0u);
    return std::make_pair(r.total, cluster.network().route_epoch());
  };
  const auto clean = run_once(false);
  const auto cut = run_once(true);
  EXPECT_EQ(clean.second, 0u);
  EXPECT_GE(cut.second, 1u);
  // Recovery is visible but bounded: the faulted run pays for the lost
  // frames and the re-convergence, nothing pathological.
  EXPECT_GT(cut.first.as_seconds(), clean.first.as_seconds());
}

TEST(Failover, GoldenReconvergenceDigestIsPinned) {
  // Deterministic re-convergence, pinned: the canonical failover run
  // (fat tree, one permanent cut mid-allreduce, NIC backend) collapsed
  // to its digest.  Any drift in probe scheduling, ECMP tie-breaks,
  // reroute escalation order, or the kRouting trace stream trips this.
  // Re-pin procedure: tests/integration_test.cpp,
  // GoldenTraceDigestForSmallFft.
  const Scenario sc{"fattree2x8", net::TopologyConfig::fat_tree(2), 8, 1};
  const auto out = run_failover(sc, apps::CollectiveBackend::kNic, true);
  EXPECT_TRUE(out.ar_ok);
  const std::uint64_t kPinnedDigest = 0xdef68fb285bf664aULL;
  char actual[17];
  std::snprintf(actual, sizeof actual, "%016llx",
                static_cast<unsigned long long>(out.digest));
  EXPECT_EQ(out.digest, kPinnedDigest)
      << "actual digest: 0x" << actual
      << " — see the re-pin instructions in integration_test.cpp";
}

// ---------------------------------------------------------------------
// Tree repair in isolation: drive the collective engine directly with a
// hand-built binomial tree and a permanently dead member.
// ---------------------------------------------------------------------

/// Binomial-tree role over identity order: parent(l) = l - lowbit(l),
/// ancestors = the parent chain to the root (what
/// collectives/collectives.cpp builds, minus the physical permutation).
inic::TreeRole binomial_role(int l, int np) {
  inic::TreeRole role;
  if (l > 0) {
    role.parent = l - (l & -l);
    for (int a = l; a > 0;) {
      a -= a & -a;
      role.ancestors.push_back(a);
    }
  }
  for (int c = l + 1; c < np; ++c) {
    if (c - (c & -c) == l) role.children.push_back(c);
  }
  return role;
}

/// Trace records named `name`.  Tree-repair steps are traced, not
/// counted one by one.
std::uint64_t count_records(apps::SimCluster& cluster, const char* name) {
  std::uint64_t n = 0;
  for (const auto& r : cluster.tracer().records()) {
    if (std::strcmp(r.name, name) == 0) ++n;
  }
  return n;
}

TEST(TreeRepair, OrphanReparentsOntoGrandparentAndBarrierCompletes) {
  // 8-rank binomial tree: 6's only child is 7, 6's parent is 4.  Node
  // 6's host link is dark from the start and never recovers, and there
  // is no fallback plane and no adaptive routing (a host link has no
  // alternate) — so 7's report to 6 must exhaust its retry budget,
  // surface PeerUnreachableError through the delivery flush, and
  // re-parent 7 onto 4.  The barrier then completes on every surviving
  // rank: 4's trigger counts 7's report in place of 6's, and its release
  // fans out to the adopted orphan.
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;
  opts.inic_max_retries = 4;
  opts.degraded_fallback = false;
  apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  cluster.tracer().enable();
  cluster.engine().set_time_budget(Time::seconds(5));
  cluster.network().set_link_state(6, false);

  std::vector<double> none;
  std::vector<std::unique_ptr<sim::Process>> ranks;
  for (int l = 0; l < 8; ++l) {
    if (l == 6) continue;  // the dead member never enters the collective
    ranks.push_back(std::make_unique<sim::Process>(
        cluster.collective_engine(static_cast<std::size_t>(l))
            .run(inic::TreeOp::kBarrier, binomial_role(l, 8), /*op_id=*/1,
                 none)));
    ranks.back()->start(cluster.engine());
  }
  cluster.engine().run();

  for (const auto& p : ranks) EXPECT_TRUE(p->done());
  // Exactly one repair: 7 re-parented once, onto 4 (the next ancestor).
  EXPECT_EQ(cluster.engine()
                .counters()
                .get(trace::Category::kCollective, 7, "coll/tree_repairs")
                .value(),
            1u);
  EXPECT_EQ(count_records(cluster, "coll/repair_reparent"), 1u);
  EXPECT_EQ(count_records(cluster, "coll/adopt"), 1u);
  // 7 gave up on 6 (that is what triggered the repair); 4 gives up on 6
  // too when its release token dies — a down-phase send has no relays,
  // so it surfaces only as a peer-unreachable count, never an exception.
  EXPECT_GE(cluster.card(7).peers_lost(), 1u);
  // No trigger-table leaks on any surviving card.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i == 6) continue;
    EXPECT_EQ(cluster.card(i).armed_triggers(), 0u) << "node " << i;
    EXPECT_EQ(cluster.card(i).stashed_trigger_messages(), 0u) << "node " << i;
  }
}

TEST(TreeRepair, OrphanReparentsOntoGrandparentAndAllreduceCompletes) {
  // The barrier test above with a data-bearing op: same tree, same dark
  // host link on node 6.  7's partial reaches 4 in place of 6's, so the
  // root's sum covers exactly the surviving ranks, and 4's down phase
  // fans that sum out to the adopted orphan along with its own children.
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;
  opts.inic_max_retries = 4;
  opts.degraded_fallback = false;
  apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  cluster.tracer().enable();
  cluster.engine().set_time_budget(Time::seconds(5));
  cluster.network().set_link_state(6, false);

  constexpr std::size_t kElements = 16;
  std::vector<std::vector<double>> data(8);
  std::vector<double> expected(kElements, 0.0);
  for (int l = 0; l < 8; ++l) {
    for (std::size_t i = 0; i < kElements; ++i) {
      data[l].push_back(static_cast<double>(l * 100 + i));
      if (l != 6) expected[i] += data[l][i];
    }
  }
  std::vector<std::unique_ptr<sim::Process>> ranks;
  for (int l = 0; l < 8; ++l) {
    if (l == 6) continue;  // the dead member never enters the collective
    ranks.push_back(std::make_unique<sim::Process>(
        cluster.collective_engine(static_cast<std::size_t>(l))
            .run(inic::TreeOp::kAllreduce, binomial_role(l, 8), /*op_id=*/1,
                 data[l])));
    ranks.back()->start(cluster.engine());
  }
  cluster.engine().run();

  for (const auto& p : ranks) EXPECT_TRUE(p->done());
  for (int l = 0; l < 8; ++l) {
    if (l != 6) {
      EXPECT_EQ(data[l], expected) << "rank " << l;
    }
  }
  EXPECT_EQ(cluster.engine()
                .counters()
                .get(trace::Category::kCollective, 7, "coll/tree_repairs")
                .value(),
            1u);
  EXPECT_EQ(count_records(cluster, "coll/repair_reparent"), 1u);
  EXPECT_EQ(count_records(cluster, "coll/adopt"), 1u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i == 6) continue;
    EXPECT_EQ(cluster.card(i).armed_triggers(), 0u) << "node " << i;
    EXPECT_EQ(cluster.card(i).stashed_trigger_messages(), 0u) << "node " << i;
  }
}

TEST(TreeRepair, RepairFailsGracefullyWhenNoAncestorSurvives) {
  // Cut BOTH of 7's ancestors (6 and 4): the relay chain ends at the
  // root, which is alive, so repair still lands there.  Then cut the
  // root's link too in a separate cluster: the relay chain is exhausted,
  // the repair emits coll/repair_failed, and the orphan's process
  // (correctly) cannot complete — but nothing crashes and the rest of
  // the fabric drains.
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;
  opts.inic_max_retries = 2;
  opts.degraded_fallback = false;
  apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  cluster.tracer().enable();
  cluster.engine().set_time_budget(Time::seconds(5));
  cluster.network().set_link_state(6, false);
  cluster.network().set_link_state(4, false);
  cluster.network().set_link_state(0, false);

  std::vector<double> none;
  auto p = std::make_unique<sim::Process>(cluster.collective_engine(7).run(
      inic::TreeOp::kBarrier, binomial_role(7, 8), /*op_id=*/2, none));
  p->start(cluster.engine());
  cluster.engine().run();

  EXPECT_FALSE(p->done());  // no release can ever arrive — op stalls
  EXPECT_EQ(count_records(cluster, "coll/repair_failed"), 1u);
  // The relay chain was walked to the end: 6, then 4, then 0.
  EXPECT_EQ(cluster.engine()
                .counters()
                .get(trace::Category::kCollective, 7, "coll/tree_repairs")
                .value(),
            2u);
}

}  // namespace
}  // namespace acc
