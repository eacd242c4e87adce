// Chaos acceptance tests: a scripted storm of faults — bursty loss, frame
// corruption, a link outage, an INIC card reset — against full FFT and
// sort runs.  The applications must finish bit-correct, the recovery
// machinery (go-back-N retransmission, CRC drops, degraded-mode TCP
// fallback) must be visibly exercised in the counters, and the whole
// faulted run must replay digest-identically for the same seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/sort_app.hpp"
#include "collectives/collectives.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace acc {
namespace {

apps::ClusterOptions chaos_options() {
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;  // faulted fabric needs error handling
  opts.inic_max_retries = 16;
  opts.degraded_fallback = true;
  return opts;
}

// The storm runs n = 256 (16x the traffic of n = 64) so the stochastic
// fault windows are statistically certain to hit INIC data frames; the
// isolated degraded-mode tests use the faster n = 64.
constexpr std::size_t kStormFftN = 256;

/// Clean-run duration, used to place fault windows at meaningful points
/// of the run (fractions of the healthy timeline).
Time clean_fft_total(std::size_t n) {
  static std::map<std::size_t, Time> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), chaos_options());
    it = cache.emplace(n, apps::run_parallel_fft(cluster, n, {}).total).first;
  }
  return it->second;
}

Time clean_sort_total() {
  static const Time total = [] {
    apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), chaos_options());
    apps::SortRunOptions opts;
    opts.verify = false;
    return apps::run_parallel_sort(cluster, 1 << 14, opts).total;
  }();
  return total;
}

/// The acceptance storm: bursty loss and corruption over almost the whole
/// run, one link outage, and one card reset wide enough to cover the
/// first all-to-all (so degraded-mode fallback must engage).
fault::FaultPlan chaos_plan(Time clean_total, std::uint64_t seed) {
  const double t = clean_total.as_seconds();
  auto at = [t](double f) { return Time::seconds(t * f); };
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.25;
  ge.loss_bad = 0.5;  // ~10% stationary loss, in bursts
  fault::FaultPlan plan;
  plan.with_seed(seed)
      .with_burst_loss(at(0.05), at(3.0), ge)
      .with_corruption(at(0.05), at(3.0), 0.05)
      .with_link_down(1, at(0.40), at(0.05))
      .with_card_reset(2, at(0.10), at(0.25));
  return plan;
}

struct ChaosOutcome {
  bool verified = false;
  Time total = Time::zero();
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
  std::uint64_t fallback = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t crc_drops = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t net_drops = 0;
};

ChaosOutcome chaos_fft_run(std::uint64_t fault_seed) {
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), chaos_options());
  cluster.tracer().enable(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(5));  // livelock backstop
  fault::FaultInjector injector(
      cluster, chaos_plan(clean_fft_total(kStormFftN), fault_seed));
  apps::FftRunOptions opts;
  opts.verify = true;
  const auto result = apps::run_parallel_fft(cluster, kStormFftN, opts);

  ChaosOutcome out;
  out.verified = result.verified;
  out.total = result.total;
  out.digest = cluster.tracer().digest();
  out.records = cluster.tracer().records_emitted();
  out.fallback = cluster.fallback_transfers();
  out.fault_events = injector.events_fired();
  out.net_drops = cluster.network().frames_dropped();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    out.retransmits += cluster.card(i).retransmits();
    out.crc_drops += cluster.card(i).crc_drops();
  }
  return out;
}

ChaosOutcome chaos_sort_run(std::uint64_t fault_seed) {
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), chaos_options());
  cluster.tracer().enable(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(5));
  // Sort sends its buckets right at t = 0, so the reset window opens at
  // the start of the run.
  fault::FaultPlan plan = chaos_plan(clean_sort_total(), fault_seed);
  plan.card_reset.front().start = Time::zero();
  fault::FaultInjector injector(cluster, plan);
  apps::SortRunOptions opts;
  opts.verify = true;
  const auto result = apps::run_parallel_sort(cluster, 1 << 14, opts);

  ChaosOutcome out;
  out.verified = result.verified;
  out.total = result.total;
  out.digest = cluster.tracer().digest();
  out.records = cluster.tracer().records_emitted();
  out.fallback = cluster.fallback_transfers();
  out.fault_events = injector.events_fired();
  out.net_drops = cluster.network().frames_dropped();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    out.retransmits += cluster.card(i).retransmits();
    out.crc_drops += cluster.card(i).crc_drops();
  }
  return out;
}

TEST(Chaos, FftSurvivesTheStormBitCorrect) {
  const auto out = chaos_fft_run(/*fault_seed=*/21);
  EXPECT_TRUE(out.verified);
  // All four windows armed and fired (card reset has only an open edge).
  EXPECT_EQ(out.fault_events, 7u);
  // Recovery machinery visibly engaged, not merely configured.
  EXPECT_GT(out.fallback, 0u);     // reset window forced TCP rerouting
  EXPECT_GT(out.retransmits, 0u);  // go-back-N repaired lost bursts
  EXPECT_GT(out.crc_drops, 0u);    // corrupted frames died at the CRC
  EXPECT_GT(out.net_drops, 0u);
  // Surviving the storm costs time.
  EXPECT_GT(out.total.as_seconds(), clean_fft_total(kStormFftN).as_seconds());
}

TEST(Chaos, SortSurvivesTheStormBitCorrect) {
  const auto out = chaos_sort_run(/*fault_seed=*/33);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.fault_events, 7u);
  EXPECT_GT(out.fallback, 0u);
  EXPECT_GT(out.retransmits + out.crc_drops + out.net_drops, 0u);
  EXPECT_GT(out.total.as_seconds(), clean_sort_total().as_seconds());
}

TEST(Chaos, SameSeedStormReplaysDigestIdentically) {
  const auto a = chaos_fft_run(/*fault_seed=*/21);
  const auto b = chaos_fft_run(/*fault_seed=*/21);
  EXPECT_EQ(a.total, b.total);
  // The whole event stream must replay, not just the endpoint.
  ASSERT_GT(a.records, 0u);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Chaos, DigestTracksFaultPlanSeed) {
  const auto a = chaos_fft_run(/*fault_seed=*/21);
  const auto b = chaos_fft_run(/*fault_seed=*/22);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  // Different loss/corruption streams must reshuffle recovery timing.
  EXPECT_NE(a.digest, b.digest);
}

// ---------------------------------------------------------------------
// NIC-backend collectives under the storm: bursty loss, an interior
// fat-tree link outage, and a card reset opening mid-collective.  The
// on-card state machines must complete via the degraded TCP fallback,
// with exactly-once combine semantics (a double-counted partial would
// fail the allreduce sum check) and no state left in the trigger tables.
// ---------------------------------------------------------------------

apps::ClusterOptions nic_collective_chaos_options() {
  apps::ClusterOptions opts = chaos_options();
  opts.collective_backend = apps::CollectiveBackend::kNic;
  opts.topology = net::TopologyConfig::fat_tree(2);
  return opts;
}

constexpr std::size_t kCollectiveChaosRanks = 16;
constexpr std::size_t kCollectiveChaosElements = 512;

/// Healthy end-to-end time of the barrier + allreduce + broadcast
/// sequence (ops run back-to-back, so the last op's absolute finish time
/// is the timeline length the fault windows are placed against).
Time clean_collective_total() {
  static const Time total = [] {
    apps::SimCluster cluster(kCollectiveChaosRanks,
                             apps::Interconnect::kInicIdeal,
                             model::default_calibration(),
                             nic_collective_chaos_options());
    EXPECT_TRUE(coll::barrier(cluster).verified);
    EXPECT_TRUE(
        coll::topology_allreduce(cluster, kCollectiveChaosElements, 5)
            .verified);
    return coll::topology_broadcast(cluster, kCollectiveChaosElements, 6)
        .total;
  }();
  return total;
}

ChaosOutcome chaos_nic_collective_run(std::uint64_t fault_seed) {
  apps::SimCluster cluster(kCollectiveChaosRanks,
                           apps::Interconnect::kInicIdeal,
                           model::default_calibration(),
                           nic_collective_chaos_options());
  cluster.tracer().enable(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(5));
  const double t = clean_collective_total().as_seconds();
  auto at = [t](double f) { return Time::seconds(t * f); };
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.25;
  ge.loss_bad = 0.5;
  // Edge switch loses one spine uplink mid-run (first interior link of
  // the fat tree); routes re-cost around it.
  const auto links = cluster.network().interior_link_stats();
  if (links.empty()) throw std::runtime_error("fat tree lost its links?");
  fault::FaultPlan plan;
  plan.with_seed(fault_seed)
      .with_burst_loss(at(0.05), at(3.0), ge)
      .with_interior_link_down(links.front().from_switch,
                               links.front().to_switch, at(0.20), at(0.30))
      // A card resets right at the start: the barrier is mid-flight, so
      // its tokens must re-carry over the degraded TCP plane.
      .with_card_reset(2, Time::zero(), at(0.50));
  fault::FaultInjector injector(cluster, plan);

  const auto bar = coll::barrier(cluster);
  const auto ar =
      coll::topology_allreduce(cluster, kCollectiveChaosElements, 5);
  const auto bc =
      coll::topology_broadcast(cluster, kCollectiveChaosElements, 6);

  ChaosOutcome out;
  out.verified = bar.verified && ar.verified && bc.verified;
  out.total = bc.total;
  out.digest = cluster.tracer().digest();
  out.records = cluster.tracer().records_emitted();
  out.fallback = cluster.fallback_transfers();
  out.fault_events = injector.events_fired();
  out.net_drops = cluster.network().frames_dropped();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    out.retransmits += cluster.card(i).retransmits();
    out.crc_drops += cluster.card(i).crc_drops();
    // No leaked trigger state, even after a faulted run.
    EXPECT_EQ(cluster.card(i).armed_triggers(), 0u) << "node " << i;
    EXPECT_EQ(cluster.card(i).stashed_trigger_messages(), 0u)
        << "node " << i;
  }
  return out;
}

TEST(Chaos, NicCollectivesSurviveTheStormExactlyOnce) {
  const auto out = chaos_nic_collective_run(/*fault_seed=*/55);
  // verified covers the exactly-once contract: a replayed partial would
  // double-count into the allreduce sum and fail the element check.
  EXPECT_TRUE(out.verified);
  // Burst loss (2 edges) + interior link down (2) + card reset (1).
  EXPECT_EQ(out.fault_events, 5u);
  EXPECT_GT(out.fallback, 0u);  // the resetting card rerouted over TCP
  EXPECT_GT(out.net_drops, 0u);
  // Surviving the storm costs time over the healthy run.
  EXPECT_GT(out.total.as_seconds(), clean_collective_total().as_seconds());
}

TEST(Chaos, NicCollectiveStormReplaysDigestIdentically) {
  const auto a = chaos_nic_collective_run(/*fault_seed=*/55);
  const auto b = chaos_nic_collective_run(/*fault_seed=*/55);
  EXPECT_EQ(a.total, b.total);
  ASSERT_GT(a.records, 0u);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Chaos, NicCollectiveDigestTracksFaultPlanSeed) {
  const auto a = chaos_nic_collective_run(/*fault_seed=*/55);
  const auto b = chaos_nic_collective_run(/*fault_seed=*/56);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_NE(a.digest, b.digest);
}

class DegradedModeBarrier
    : public ::testing::TestWithParam<apps::CollectiveBackend> {};

TEST_P(DegradedModeBarrier, CompletesThroughAMidCollectiveCardReset) {
  // One fault only: a card reset opening at t = 0 and outlasting the
  // whole healthy barrier, so every message touching node 2 must take the
  // fallback plane.  Both backends send through SimCluster::transfer, so
  // the host-driven barrier must reroute exactly like the on-card one
  // instead of waiting the reset out.
  apps::ClusterOptions opts = nic_collective_chaos_options();
  opts.collective_backend = GetParam();
  apps::SimCluster cluster(kCollectiveChaosRanks,
                           apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  cluster.engine().set_time_budget(Time::seconds(5));
  const Time reset_end = clean_collective_total() * 2.0;
  fault::FaultPlan plan;
  plan.with_card_reset(2, Time::zero(), reset_end);
  fault::FaultInjector injector(cluster, plan);
  const auto result = coll::barrier(cluster);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(cluster.fallback_transfers(), 0u);
  EXPECT_LT(result.total.as_seconds(), reset_end.as_seconds());
  EXPECT_EQ(injector.events_fired(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DegradedModeBarrier,
    ::testing::Values(apps::CollectiveBackend::kHost,
                      apps::CollectiveBackend::kNic),
    [](const ::testing::TestParamInfo<apps::CollectiveBackend>& info) {
      return std::string(apps::to_string(info.param));
    });

// ---------------------------------------------------------------------
// Degraded mode in isolation: one card reset, no other faults
// ---------------------------------------------------------------------

TEST(DegradedMode, FftCompletesWhenOneCardResetsMidRun) {
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), chaos_options());
  const double t = clean_fft_total(64).as_seconds();
  fault::FaultPlan plan;
  plan.with_card_reset(2, Time::seconds(t * 0.10), Time::seconds(t * 0.25));
  fault::FaultInjector injector(cluster, plan);
  apps::FftRunOptions opts;
  opts.verify = true;
  const auto result = apps::run_parallel_fft(cluster, 64, opts);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(cluster.fallback_transfers(), 0u);
  EXPECT_EQ(injector.events_fired(), 1u);
}

TEST(DegradedMode, SortCompletesWhenOneCardResetsMidRun) {
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), chaos_options());
  fault::FaultPlan plan;
  plan.with_card_reset(1, Time::zero(),
                       Time::seconds(clean_sort_total().as_seconds() * 0.3));
  fault::FaultInjector injector(cluster, plan);
  apps::SortRunOptions opts;
  opts.verify = true;
  const auto result = apps::run_parallel_sort(cluster, 1 << 14, opts);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(cluster.fallback_transfers(), 0u);
}

TEST(DegradedMode, WithoutFallbackTheResetOnlyStallsTheRun) {
  // Control: same reset, no fallback plane.  Go-back-N alone must still
  // finish correct (slower), proving fallback is an optimization of
  // recovery latency, not a correctness crutch.
  apps::ClusterOptions opts_nofb = chaos_options();
  opts_nofb.degraded_fallback = false;
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts_nofb);
  cluster.engine().set_time_budget(Time::seconds(5));
  const double t = clean_fft_total(64).as_seconds();
  fault::FaultPlan plan;
  plan.with_card_reset(2, Time::seconds(t * 0.10), Time::seconds(t * 0.25));
  fault::FaultInjector injector(cluster, plan);
  apps::FftRunOptions opts;
  opts.verify = true;
  const auto result = apps::run_parallel_fft(cluster, 64, opts);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(cluster.fallback_transfers(), 0u);
}

}  // namespace
}  // namespace acc
