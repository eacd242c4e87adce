// Failure injection: random frame loss on the fabric.  TCP must recover
// by timeout/retransmission; the INIC must recover with its hardware
// go-back-N (when enabled) without involving the host; applications must
// still produce correct results under loss.
#include <gtest/gtest.h>

#include <memory>

#include "apps/fft_app.hpp"
#include "apps/sort_app.hpp"
#include "fault/fault.hpp"
#include "hw/node.hpp"
#include "inic/card.hpp"
#include "model/calibration.hpp"
#include "net/network.hpp"
#include "proto/tcp.hpp"
#include "sim/process.hpp"

namespace acc {
namespace {

/// The calibration with the device settings these TCP tests were written
/// against (an initial window of 2 segments, a 120 us interrupt-coalescing
/// timeout) and a 5 ms minimum RTO to keep them quick.
model::Calibration tcp_test_calibration() {
  model::Calibration cal;
  cal.tcp_initial_window_segments = 2;
  cal.interrupt_coalesce_timeout = Time::micros(120);
  cal.tcp_min_rto = Time::millis(5);
  return cal;
}

TEST(Reliability, TcpDeliversUnderRandomLoss) {
  sim::Engine eng;
  net::Network network(eng, 2);
  network.set_random_loss(0.15, 42);

  const model::Calibration cal = tcp_test_calibration();
  hw::Node a(eng, 0, cal), b(eng, 1, cal);
  net::StandardNic nic_a(a, network), nic_b(b, network);
  proto::TcpStack stack_a(a, nic_a), stack_b(b, nic_b);

  std::vector<proto::Message> received;
  sim::ProcessGroup group(eng);
  group.spawn([](proto::TcpStack& s) -> sim::Process {
    for (std::uint64_t m = 0; m < 10; ++m) {
      co_await s.send_message(1, Bytes::kib(32), m, std::any{});
    }
  }(stack_a));
  group.spawn([](proto::TcpStack& s, std::vector<proto::Message>& out)
                  -> sim::Process {
    for (int m = 0; m < 10; ++m) out.push_back(co_await s.inbox().recv());
  }(stack_b, received));
  group.join();

  ASSERT_EQ(received.size(), 10u);
  for (std::uint64_t m = 0; m < 10; ++m) {
    EXPECT_EQ(received[m].tag, m);  // in order despite losses
  }
  EXPECT_GT(network.frames_dropped(), 0u);
  EXPECT_GT(stack_a.retransmits(), 0u);
}

TEST(Reliability, TcpConvergesUnderSustained30PercentLoss) {
  // Brutal but survivable: with ~1/3 of all frames dying, forward
  // progress hinges on the exponential RTO backoff — a fixed RTO would
  // retransmit into the loss at a constant rate and converge far slower
  // (before the backoff fix this scenario effectively never finished).
  sim::Engine eng;
  net::Network network(eng, 2);
  network.set_random_loss(0.30, 99);

  const model::Calibration cal = tcp_test_calibration();
  hw::Node a(eng, 0, cal), b(eng, 1, cal);
  net::StandardNic nic_a(a, network), nic_b(b, network);
  proto::TcpStack stack_a(a, nic_a), stack_b(b, nic_b);

  std::vector<proto::Message> received;
  sim::ProcessGroup group(eng);
  group.spawn([](proto::TcpStack& s) -> sim::Process {
    for (std::uint64_t m = 0; m < 8; ++m) {
      co_await s.send_message(1, Bytes::kib(16), m, std::any{});
    }
  }(stack_a));
  group.spawn([](proto::TcpStack& s, std::vector<proto::Message>& out)
                  -> sim::Process {
    for (int m = 0; m < 8; ++m) out.push_back(co_await s.inbox().recv());
  }(stack_b, received));
  group.join();

  ASSERT_EQ(received.size(), 8u);
  for (std::uint64_t m = 0; m < 8; ++m) EXPECT_EQ(received[m].tag, m);
  EXPECT_GT(stack_a.retransmits(), 0u);
  // 30% loss guarantees back-to-back losses of the same burst, so the
  // backoff machinery must have engaged.
  EXPECT_GT(stack_a.backoffs(), 0u);
}

TEST(Reliability, TcpDeliversUnderBurstyLoss) {
  // Correlated (Gilbert–Elliott) loss: long good stretches, short bad
  // dwells that kill several consecutive frames — the pattern that
  // punishes fixed-interval retransmission hardest.
  sim::Engine eng;
  net::Network network(eng, 2);
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.02;
  ge.p_bad_to_good = 0.25;
  ge.loss_bad = 0.9;
  network.set_burst_loss(ge, 17);

  const model::Calibration cal = tcp_test_calibration();
  hw::Node a(eng, 0, cal), b(eng, 1, cal);
  net::StandardNic nic_a(a, network), nic_b(b, network);
  proto::TcpStack stack_a(a, nic_a), stack_b(b, nic_b);

  std::vector<proto::Message> received;
  sim::ProcessGroup group(eng);
  group.spawn([](proto::TcpStack& s) -> sim::Process {
    for (std::uint64_t m = 0; m < 10; ++m) {
      co_await s.send_message(1, Bytes::kib(32), m, std::any{});
    }
  }(stack_a));
  group.spawn([](proto::TcpStack& s, std::vector<proto::Message>& out)
                  -> sim::Process {
    for (int m = 0; m < 10; ++m) out.push_back(co_await s.inbox().recv());
  }(stack_b, received));
  group.join();

  ASSERT_EQ(received.size(), 10u);
  for (std::uint64_t m = 0; m < 10; ++m) EXPECT_EQ(received[m].tag, m);
  EXPECT_GT(network.frames_dropped_burst(), 0u);
  EXPECT_GT(stack_a.retransmits(), 0u);
}

struct LossyInicRig {
  LossyInicRig(double loss, bool hw_retransmit) {
    network = std::make_unique<net::Network>(eng, 2);
    network->set_random_loss(loss, 7);
    inic::InicConfig cfg = inic::InicConfig::ideal();
    cfg.hw_retransmit = hw_retransmit;
    cfg.retransmit_timeout = Time::millis(1);
    node_a = std::make_unique<hw::Node>(eng, 0);
    node_b = std::make_unique<hw::Node>(eng, 1);
    card_a = std::make_unique<inic::InicCard>(*node_a, *network, cfg);
    card_b = std::make_unique<inic::InicCard>(*node_b, *network, cfg);
  }
  sim::Engine eng;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<hw::Node> node_a, node_b;
  std::unique_ptr<inic::InicCard> card_a, card_b;
};

TEST(Reliability, InicHwRetransmitRecoversFromLoss) {
  LossyInicRig rig(0.05, /*hw_retransmit=*/true);
  std::vector<proto::Message> received;
  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c) -> sim::Process {
    for (std::uint64_t m = 0; m < 5; ++m) {
      co_await c.send_stream(1, Bytes::kib(256), m, std::any{});
    }
  }(*rig.card_a));
  group.spawn([](inic::InicCard& c, std::vector<proto::Message>& out)
                  -> sim::Process {
    for (int m = 0; m < 5; ++m) out.push_back(co_await c.card_inbox().recv());
  }(*rig.card_b, received));
  group.join();

  ASSERT_EQ(received.size(), 5u);
  for (std::uint64_t m = 0; m < 5; ++m) EXPECT_EQ(received[m].tag, m);
  EXPECT_GT(rig.network->frames_dropped(), 0u);
  EXPECT_GT(rig.card_a->retransmits(), 0u);
  // Error handling stayed in hardware: the host never saw an interrupt.
  EXPECT_EQ(rig.node_a->cpu().interrupts_serviced(), 0u);
  EXPECT_EQ(rig.node_b->cpu().interrupts_serviced(), 0u);
}

TEST(Reliability, InicWithoutRetransmitDeadlocksUnderLoss) {
  // The base INIC protocol is lossless by construction; injected loss
  // therefore stalls the stream, and the harness detects the deadlock.
  LossyInicRig rig(0.2, /*hw_retransmit=*/false);
  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::mib(1), 0, std::any{});
  }(*rig.card_a));
  group.spawn([](inic::InicCard& c) -> sim::Process {
    (void)co_await c.card_inbox().recv();
  }(*rig.card_b));
  EXPECT_THROW(group.join(), std::logic_error);
}

TEST(Reliability, InicDuplicateBurstsAreDiscarded) {
  // Force duplicates: drop enough credits that the sender retransmits
  // bursts the receiver already consumed.
  LossyInicRig rig(0.10, /*hw_retransmit=*/true);
  std::vector<proto::Message> received;
  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::mib(1), 0, std::any{});
  }(*rig.card_a));
  group.spawn([](inic::InicCard& c, std::vector<proto::Message>& out)
                  -> sim::Process {
    out.push_back(co_await c.card_inbox().recv());
  }(*rig.card_b, received));
  group.join();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].size, Bytes::mib(1));
  EXPECT_GT(rig.card_b->duplicates_dropped(), 0u);
}

TEST(Reliability, InicHwRetransmitRecoversFromBurstyLoss) {
  LossyInicRig rig(0.0, /*hw_retransmit=*/true);
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.03;
  ge.p_bad_to_good = 0.25;
  ge.loss_bad = 0.8;
  rig.network->set_burst_loss(ge, 23);

  std::vector<proto::Message> received;
  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c) -> sim::Process {
    for (std::uint64_t m = 0; m < 5; ++m) {
      co_await c.send_stream(1, Bytes::kib(256), m, std::any{});
    }
  }(*rig.card_a));
  group.spawn([](inic::InicCard& c, std::vector<proto::Message>& out)
                  -> sim::Process {
    for (int m = 0; m < 5; ++m) out.push_back(co_await c.card_inbox().recv());
  }(*rig.card_b, received));
  group.join();

  ASSERT_EQ(received.size(), 5u);
  for (std::uint64_t m = 0; m < 5; ++m) EXPECT_EQ(received[m].tag, m);
  EXPECT_GT(rig.network->frames_dropped_burst(), 0u);
  EXPECT_GT(rig.card_a->retransmits(), 0u);
  // A burst can take out a data frame and its neighbours together; the
  // go-back-N machinery still keeps the host out of the recovery.
  EXPECT_EQ(rig.node_a->cpu().interrupts_serviced(), 0u);
  EXPECT_EQ(rig.node_b->cpu().interrupts_serviced(), 0u);
}

TEST(Reliability, FftVerifiesUnderLossOnTcp) {
  apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp);
  cluster.network().set_random_loss(0.02, 11);
  apps::FftRunOptions opts;
  opts.verify = true;
  const auto r = run_parallel_fft(cluster, 64, opts);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(cluster.network().frames_dropped(), 0u);
}

TEST(Reliability, OverlappingCardResetsOnBothEndpointsFallBackToTcp) {
  // Both endpoints of the hot communication pairs lose their INIC at the
  // same time: node 1's reset window fully overlaps node 2's.  Every
  // transfer between them during the overlap sees BOTH cards dark — the
  // degraded TCP plane must carry the traffic in both directions, and
  // the run must still verify bit-correct once the cards come back.
  apps::ClusterOptions opts;
  opts.inic_hw_retransmit = true;
  opts.inic_max_retries = 16;
  opts.degraded_fallback = true;
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  cluster.engine().set_time_budget(Time::seconds(5));  // livelock backstop

  // Size the overlapping windows off the healthy timeline so they cover
  // the first all-to-all regardless of calibration drift.
  const Time clean = [] {
    apps::ClusterOptions copts;
    copts.inic_hw_retransmit = true;
    copts.inic_max_retries = 16;
    copts.degraded_fallback = true;
    apps::SimCluster c(4, apps::Interconnect::kInicIdeal,
                       model::default_calibration(), copts);
    return apps::run_parallel_fft(c, 256, {}).total;
  }();
  const double t = clean.as_seconds();
  fault::FaultPlan plan;
  plan.with_card_reset(1, Time::seconds(t * 0.05), Time::seconds(t * 0.40))
      .with_card_reset(2, Time::seconds(t * 0.10), Time::seconds(t * 0.45));
  fault::FaultInjector injector(cluster, plan);

  apps::FftRunOptions run_opts;
  run_opts.verify = true;
  const auto r = apps::run_parallel_fft(cluster, 256, run_opts);

  EXPECT_TRUE(r.verified);
  EXPECT_EQ(injector.events_fired(), 2u);
  // Fallback engaged: transfers ran degraded while the cards were dark.
  EXPECT_GT(cluster.fallback_transfers(), 0u);
  // Both cards actually cycled through a reset window.
  EXPECT_GT(cluster.card(1).reset_done_at(), Time::zero());
  EXPECT_GT(cluster.card(2).reset_done_at(), Time::zero());
  // Nobody was written off permanently — the windows end and the INIC
  // plane resumes.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    for (std::size_t j = 0; j < cluster.size(); ++j) {
      EXPECT_FALSE(cluster.card(i).peer_unreachable(static_cast<int>(j)));
    }
  }
}

TEST(Reliability, LossSlowsTcpDownMeasurably) {
  auto run = [](double loss) {
    apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp);
    if (loss > 0) cluster.network().set_random_loss(loss, 13);
    apps::SortRunOptions opts;
    opts.verify = false;
    return run_parallel_sort(cluster, std::size_t{1} << 22, opts).total;
  };
  const Time clean = run(0.0);
  const Time lossy = run(0.03);
  // Every loss costs a >= 200 ms RTO on 2001-era TCP.
  EXPECT_GT(lossy.as_seconds(), clean.as_seconds() * 1.5);
}

}  // namespace
}  // namespace acc
