// Cross-module integration: full application runs under combined
// stresses (prototype hardware + loss + hardware retransmit + skew), and
// end-to-end invariants that span several subsystems.
#include <gtest/gtest.h>

#include <cstdio>

#include "apps/fft_app.hpp"
#include "apps/sort_app.hpp"
#include "collectives/collectives.hpp"
#include "core/report.hpp"
#include "model/fft_model.hpp"
#include "net/topology.hpp"

namespace acc {
namespace {

TEST(Integration, FullFftOnPrototypeInicVerifies) {
  apps::SimCluster cluster(8, apps::Interconnect::kInicPrototype);
  apps::FftRunOptions opts;
  opts.verify = true;
  const auto r = run_parallel_fft(cluster, 128, opts);
  EXPECT_TRUE(r.verified);

  const auto report = core::collect_report(cluster);
  // The prototype still eliminates host interrupts entirely.
  EXPECT_EQ(report.total_interrupts(), 0u);
  EXPECT_EQ(report.frames_dropped, 0u);
}

TEST(Integration, SortOnPrototypeWithSkewAndSplittersVerifies) {
  apps::SimCluster cluster(8, apps::Interconnect::kInicPrototype);
  apps::SortRunOptions opts;
  opts.verify = true;
  opts.distribution = apps::KeyDistribution::kGaussian;
  opts.sampling_splitters = true;
  const auto r = run_parallel_sort(cluster, std::size_t{1} << 16, opts);
  EXPECT_TRUE(r.verified);
  // Prototype: host phase-2 refinement present, phase-1 absorbed.
  EXPECT_EQ(r.bucket_phase1, Time::zero());
  EXPECT_GT(r.bucket_phase2, Time::zero());
}

TEST(Integration, FftOverLossyTcpVerifiesAndRecovers) {
  apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp);
  cluster.network().set_random_loss(0.03, 17);
  apps::FftRunOptions opts;
  opts.verify = true;
  const auto r = run_parallel_fft(cluster, 64, opts);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(cluster.network().frames_dropped(), 0u);
}

TEST(Integration, ConservationOfBytesThroughTheFabric) {
  // Every payload byte the FFT transpose exchanges must cross the
  // fabric exactly once (no loss, no duplication) on the INIC path.
  apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal);
  apps::FftRunOptions opts;
  opts.verify = false;
  const std::size_t n = 256;
  run_parallel_fft(cluster, n, opts);

  // Expected payload: 2 transposes x P nodes x (P-1)/P of the partition,
  // plus per-packet INIC headers and credit frames on the wire.
  const std::size_t p_count = 8;
  const std::uint64_t partition = n * n * 16 / p_count;
  const std::uint64_t payload =
      2ull * p_count * (partition * (p_count - 1) / p_count);
  const double wire =
      static_cast<double>(cluster.network().bytes_forwarded().count());
  EXPECT_GT(wire, static_cast<double>(payload));        // headers exist
  EXPECT_LT(wire, 1.15 * static_cast<double>(payload)); // but are small
  EXPECT_EQ(cluster.network().frames_dropped(), 0u);
}

TEST(Integration, AnalyticAndSimulatedFigure4aAgreeInShape) {
  // The two INIC estimates (closed-form model, discrete-event simulator)
  // must rank processor counts identically and stay within a constant
  // factor — the cross-check behind EXPERIMENTS.md's caveat #3.
  model::FftAnalyticModel m;
  double prev_ratio = 0.0;
  for (std::size_t p : {2, 4, 8, 16}) {
    apps::SimCluster cluster(p, apps::Interconnect::kInicIdeal);
    apps::FftRunOptions opts;
    opts.verify = false;
    const auto sim = run_parallel_fft(cluster, 512, opts);
    const double ratio =
        m.inic_total_time(512, p).as_seconds() / sim.total.as_seconds();
    EXPECT_GT(ratio, 0.6) << "P=" << p;
    EXPECT_LT(ratio, 1.5) << "P=" << p;
    if (prev_ratio > 0.0) {
      EXPECT_NEAR(ratio, prev_ratio, 0.45);  // no wild divergence with P
    }
    prev_ratio = ratio;
  }
}

TEST(Integration, GoldenTraceDigestForSmallFft) {
  // Golden-trace regression check: the complete event stream of a small
  // canonical run, collapsed to its 64-bit digest.  This pin catches
  // *any* behavioural drift — event order, timestamps, added or removed
  // instrumentation — not just end-result drift.
  //
  // If this fails AND the change to simulator behaviour or trace hooks
  // was intentional, re-pin: run
  //   build/tests/integration_test --gtest_filter='*GoldenTraceDigest*'
  // and paste the "actual" digest printed below into kPinnedDigest,
  // noting the cause in the commit message.  An unintentional failure is
  // a determinism or behaviour regression — do not re-pin; bisect it.
  apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp);
  cluster.tracer().enable(/*ring_capacity=*/64);
  apps::FftRunOptions opts;
  opts.verify = true;
  opts.seed = 42;
  const auto r = run_parallel_fft(cluster, 64, opts);
  EXPECT_TRUE(r.verified);

  // Re-pinned when TCP retransmit timers became cancel-on-ack
  // (schedule_cancelable): ACKed bursts now remove their RTO timer from
  // the event heap instead of letting it fire as a stale no-op, so the
  // trace no longer contains those timers' engine/dispatch instants.
  const std::uint64_t kPinnedDigest = 0x28e2dd6d00b628a1ULL;
  char actual[17];
  std::snprintf(actual, sizeof actual, "%016llx",
                static_cast<unsigned long long>(cluster.tracer().digest()));
  EXPECT_EQ(cluster.tracer().digest(), kPinnedDigest)
      << "actual digest: 0x" << actual
      << " — see the re-pin instructions in this test";
}

TEST(Integration, GoldenTraceDigestForNicCollectives) {
  // Companion pin for the NIC-resident collective plane: a canonical
  // barrier + allreduce on a 2-level fat tree with the kNic backend,
  // collapsed to its digest.  Trigger arms, on-card combines, tree
  // forwards and the completion DMAs are all inside this stream, so any
  // drift in the trigger table or CollectiveEngine scheduling trips it.
  // Re-pin procedure as in GoldenTraceDigestForSmallFft.
  apps::ClusterOptions copts;
  copts.topology = net::TopologyConfig::fat_tree(2);
  copts.collective_backend = apps::CollectiveBackend::kNic;
  apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.tracer().enable(/*ring_capacity=*/64);
  EXPECT_TRUE(coll::barrier(cluster).verified);
  EXPECT_TRUE(coll::topology_allreduce(cluster, 128, /*seed=*/5).verified);

  // Re-pinned when interior-link counters were normalized to the
  // undirected s<min>-s<max> name: both directions of a backbone link
  // now share one counter, so the per-update values in this fat-tree
  // run's stream changed.  Star-topology runs have no interior links and
  // kept their digests (see GoldenTraceDigestForSmallFft).
  const std::uint64_t kPinnedDigest = 0xd623718570a605ebULL;
  char actual[17];
  std::snprintf(actual, sizeof actual, "%016llx",
                static_cast<unsigned long long>(cluster.tracer().digest()));
  EXPECT_EQ(cluster.tracer().digest(), kPinnedDigest)
      << "actual digest: 0x" << actual
      << " — see the re-pin instructions in GoldenTraceDigestForSmallFft";
}

TEST(Integration, GoldenTraceDigestForNicBroadcastAndReduce) {
  // Companion to GoldenTraceDigestForNicCollectives for the two on-card
  // ops it does not run: a broadcast (down phase only, cut-through
  // forwards) and a reduce (up phase only, root-only final DMA) on the
  // same 2-level fat tree.  Re-pin procedure as in
  // GoldenTraceDigestForSmallFft.
  apps::ClusterOptions copts;
  copts.topology = net::TopologyConfig::fat_tree(2);
  copts.collective_backend = apps::CollectiveBackend::kNic;
  apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), copts);
  cluster.tracer().enable(/*ring_capacity=*/64);
  EXPECT_TRUE(coll::topology_broadcast(cluster, 128, /*seed=*/3).verified);
  EXPECT_TRUE(coll::topology_reduce(cluster, 128, /*seed=*/4).verified);

  const std::uint64_t kPinnedDigest = 0x5e766ea34039ea66ULL;
  char actual[17];
  std::snprintf(actual, sizeof actual, "%016llx",
                static_cast<unsigned long long>(cluster.tracer().digest()));
  EXPECT_EQ(cluster.tracer().digest(), kPinnedDigest)
      << "actual digest: 0x" << actual
      << " — see the re-pin instructions in GoldenTraceDigestForSmallFft";
}

TEST(Integration, GoldenTraceDigestForHostCollectivesOnTorus) {
  // Host-backend pin on a fabric where hop order differs from node-id
  // order: the dissemination barrier's ranks enter in node-id order,
  // while the allreduce tree is laid over hop_ordered_ranks.  A change
  // to either order (or to the host send/recv loops) trips this pin.
  // Re-pin procedure as in GoldenTraceDigestForSmallFft.
  apps::ClusterOptions copts;
  copts.topology = net::TopologyConfig::torus(2);
  apps::SimCluster cluster(16, apps::Interconnect::kGigabitTcp,
                           model::default_calibration(), copts);
  cluster.tracer().enable(/*ring_capacity=*/64);
  EXPECT_TRUE(coll::barrier(cluster).verified);
  EXPECT_TRUE(coll::topology_allreduce(cluster, 128, /*seed=*/5).verified);

  const std::uint64_t kPinnedDigest = 0x4cb9c899feaaafe0ULL;
  char actual[17];
  std::snprintf(actual, sizeof actual, "%016llx",
                static_cast<unsigned long long>(cluster.tracer().digest()));
  EXPECT_EQ(cluster.tracer().digest(), kPinnedDigest)
      << "actual digest: 0x" << actual
      << " — see the re-pin instructions in GoldenTraceDigestForSmallFft";
}

TEST(Integration, ReportCarriesTraceDigestAndCounters) {
  // collect_report() must surface the trace stream summary and the full
  // counter snapshot so figure drivers can log them.
  apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp);
  cluster.tracer().enable(/*ring_capacity=*/64);
  apps::FftRunOptions opts;
  opts.verify = false;
  run_parallel_fft(cluster, 64, opts);
  const auto report = core::collect_report(cluster);
  EXPECT_GT(report.trace_records, 0u);
  EXPECT_EQ(report.trace_digest, cluster.tracer().digest());
  ASSERT_FALSE(report.counters.empty());
  // The aggregated fabric totals come from the same counters.
  for (const auto& c : report.counters) {
    if (c.node == -1 && c.name == "net/frames_forwarded") {
      EXPECT_EQ(c.value, report.frames_forwarded);
    }
  }
}

TEST(Integration, SpeedupOrderingAcrossInterconnects) {
  // Paper-wide invariant at every P: FastE <= GigE <= prototype <= ideal
  // INIC for the FFT (Figure 8a's ordering).
  apps::FftRunOptions opts;
  opts.verify = false;
  for (std::size_t p : {4, 8, 16}) {
    std::vector<double> totals;
    for (auto ic :
         {apps::Interconnect::kInicIdeal, apps::Interconnect::kInicPrototype,
          apps::Interconnect::kGigabitTcp,
          apps::Interconnect::kFastEthernetTcp}) {
      apps::SimCluster cluster(p, ic);
      totals.push_back(run_parallel_fft(cluster, 512, opts).total.as_seconds());
    }
    EXPECT_LE(totals[0], totals[1]) << "ideal vs prototype P=" << p;
    EXPECT_LE(totals[1], totals[2]) << "prototype vs GigE P=" << p;
    EXPECT_LE(totals[2], totals[3]) << "GigE vs FastE P=" << p;
  }
}

}  // namespace
}  // namespace acc
