// Fault-injection subsystem tests: the Gilbert–Elliott loss chain's
// statistics, exact-window semantics of link outages, corruption
// (delivered-but-CRC-failed), per-port degradation, buffer shrink, INIC
// card resets, the go-back-N retry budget, and the engine watchdog /
// deadlock diagnostics the recovery paths rely on.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/cluster.hpp"
#include "fault/gilbert_elliott.hpp"
#include "hw/node.hpp"
#include "inic/card.hpp"
#include "model/calibration.hpp"
#include "net/network.hpp"
#include "net/nic.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"

namespace acc {
namespace {

// ---------------------------------------------------------------------
// Gilbert–Elliott chain statistics
// ---------------------------------------------------------------------

TEST(GilbertElliott, DwellFractionsMatchTransitionProbabilities) {
  fault::GilbertElliottParams p;
  p.p_good_to_bad = 0.05;
  p.p_bad_to_good = 0.20;
  p.loss_good = 0.0;
  p.loss_bad = 1.0;
  fault::GilbertElliott chain(p, /*seed=*/99);

  const std::uint64_t frames = 200000;
  std::uint64_t lost = 0;
  for (std::uint64_t i = 0; i < frames; ++i) {
    if (chain.lose_frame()) ++lost;
  }
  // Stationary bad-state fraction = p_gb / (p_gb + p_bg) = 0.2.
  const double bad_fraction =
      static_cast<double>(chain.frames_in_bad()) / static_cast<double>(frames);
  EXPECT_NEAR(bad_fraction, 0.2, 0.03);
  // With loss_bad = 1 and loss_good = 0 every bad-state frame (and only
  // those) is lost.
  EXPECT_EQ(lost, chain.frames_in_bad());
  EXPECT_EQ(chain.frames_in_good() + chain.frames_in_bad(), frames);
}

TEST(GilbertElliott, SameSeedReplaysIdentically) {
  fault::GilbertElliottParams p;
  p.p_good_to_bad = 0.02;
  p.p_bad_to_good = 0.25;
  p.loss_bad = 0.5;
  fault::GilbertElliott a(p, 7), b(p, 7), c(p, 8);
  bool differs_from_c = false;
  for (int i = 0; i < 5000; ++i) {
    const bool la = a.lose_frame();
    EXPECT_EQ(la, b.lose_frame());
    if (la != c.lose_frame()) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);  // a different seed must move the chain
}

// ---------------------------------------------------------------------
// Network fault hooks
// ---------------------------------------------------------------------

class RecordingEndpoint : public net::Endpoint {
 public:
  explicit RecordingEndpoint(sim::Engine& eng) : eng_(eng) {}
  void deliver(const net::Frame& frame) override {
    frames.push_back(frame);
    times.push_back(eng_.now());
  }
  std::vector<net::Frame> frames;
  std::vector<Time> times;

 private:
  sim::Engine& eng_;
};

net::Frame make_frame(int src, int dst, Bytes payload) {
  net::Frame f;
  f.src = src;
  f.dst = dst;
  f.payload = payload;
  f.wire = payload + Bytes(38);
  f.packet_count = 1;
  return f;
}

TEST(NetworkFaults, LinkDownWindowDropsExactlyFramesInsideIt) {
  sim::Engine eng;
  net::Network net(eng, 2);
  RecordingEndpoint a(eng), b(eng);
  net.attach(0, a);
  net.attach(1, b);

  // Window: node 1's link is down over [40us, 80us).
  eng.schedule_at(Time::micros(40), [&] { net.set_link_state(1, false); });
  eng.schedule_at(Time::micros(80), [&] { net.set_link_state(1, true); });
  // One frame before, two inside (one each direction), one after.
  eng.schedule_at(Time::micros(10),
                  [&] { net.inject(make_frame(0, 1, Bytes(1000))); });
  eng.schedule_at(Time::micros(50),
                  [&] { net.inject(make_frame(0, 1, Bytes(2000))); });
  eng.schedule_at(Time::micros(60),
                  [&] { net.inject(make_frame(1, 0, Bytes(3000))); });
  eng.schedule_at(Time::micros(100),
                  [&] { net.inject(make_frame(0, 1, Bytes(4000))); });
  eng.run();

  ASSERT_EQ(b.frames.size(), 2u);  // 1000 and 4000 made it through
  EXPECT_EQ(b.frames[0].payload, Bytes(1000));
  EXPECT_EQ(b.frames[1].payload, Bytes(4000));
  EXPECT_TRUE(a.frames.empty());  // the 3000 left a down link
  EXPECT_EQ(net.frames_dropped_link_down(), 2u);
  EXPECT_EQ(net.frames_dropped(), 2u);
}

TEST(NetworkFaults, BurstLossDropsAndCountsSeparately) {
  sim::Engine eng;
  net::Network net(eng, 2);
  RecordingEndpoint a(eng), b(eng);
  net.attach(0, a);
  net.attach(1, b);

  fault::GilbertElliottParams p;
  p.p_good_to_bad = 0.2;
  p.p_bad_to_good = 0.2;
  p.loss_bad = 1.0;
  net.set_burst_loss(p, /*seed=*/5);
  const int frames = 400;
  for (int i = 0; i < frames; ++i) {
    eng.schedule_at(Time::micros(10 * (i + 1)),
                    [&] { net.inject(make_frame(0, 1, Bytes(100))); });
  }
  eng.run();

  EXPECT_GT(net.frames_dropped_burst(), 0u);
  EXPECT_EQ(net.frames_dropped(), net.frames_dropped_burst());
  EXPECT_EQ(b.frames.size(),
            static_cast<std::size_t>(frames) - net.frames_dropped_burst());
  // Bursty by construction: ~50% stationary loss arriving in runs.
  const double rate = static_cast<double>(net.frames_dropped_burst()) / frames;
  EXPECT_GT(rate, 0.3);
  EXPECT_LT(rate, 0.7);
}

TEST(NetworkFaults, CorruptedFramesAreDeliveredWithTheFlagSet) {
  sim::Engine eng;
  net::Network net(eng, 2);
  RecordingEndpoint a(eng), b(eng);
  net.attach(0, a);
  net.attach(1, b);

  net.set_corruption(1.0, /*seed=*/3);
  net.inject(make_frame(0, 1, Bytes(1000)));
  eng.run();

  // Corruption is not loss: the frame crossed the fabric and was
  // delivered; discarding it is the endpoint's job (CRC check).
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(b.frames[0].corrupted);
  EXPECT_EQ(net.frames_corrupted(), 1u);
  EXPECT_EQ(net.frames_dropped(), 0u);
}

TEST(NetworkFaults, StandardNicDropsCorruptedFramesAtTheMac) {
  sim::Engine eng;
  net::Network net(eng, 2);
  hw::Node na(eng, 0), nb(eng, 1);
  net::StandardNic nic_a(na, net), nic_b(nb, net);
  int upcalls = 0;
  nic_b.set_rx_handler([&](const net::Frame&) { ++upcalls; });

  net.set_corruption(1.0, /*seed=*/3);
  sim::Process tx = nic_a.transmit(make_frame(0, 1, Bytes(1000)));
  tx.start(eng);
  eng.run();

  EXPECT_EQ(upcalls, 0);
  EXPECT_EQ(nic_b.crc_drops(), 1u);
  EXPECT_EQ(nic_b.frames_received(), 0u);
}

TEST(NetworkFaults, PortRateDegradeStretchesDelivery) {
  auto delivery_time = [](double factor) {
    sim::Engine eng;
    net::Network net(eng, 2);
    RecordingEndpoint a(eng), b(eng);
    net.attach(0, a);
    net.attach(1, b);
    if (factor < 1.0) net.set_port_rate_factor(1, factor);
    net.inject(make_frame(0, 1, Bytes(125000)));  // 1 ms at gigabit
    eng.run();
    return b.times.at(0);
  };
  const Time full = delivery_time(1.0);
  const Time degraded = delivery_time(0.1);  // a 100 Mb/s renegotiation
  // Serialization dominates this frame, so 10x slower egress is ~10x.
  EXPECT_GT(degraded.as_seconds(), full.as_seconds() * 5.0);
}

TEST(NetworkFaults, BufferShrinkCausesDropTailLoss) {
  sim::Engine eng;
  net::NetworkConfig cfg;
  cfg.port_buffer = Bytes::kib(64);
  net::Network net(eng, 3, cfg);
  RecordingEndpoint sink(eng), s1(eng), s2(eng);
  net.attach(0, sink);
  net.attach(1, s1);
  net.attach(2, s2);

  net.set_port_buffer_factor(0, 0.3);  // ~19 KB of buffer left
  // Two simultaneous 16 KB bursts to port 0: the first fits, the second
  // would overflow the shrunken buffer and is tail-dropped whole.
  net.inject(make_frame(1, 0, Bytes::kib(16)));
  net.inject(make_frame(2, 0, Bytes::kib(16)));
  eng.run();
  EXPECT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(net.frames_dropped(), 1u);

  // Restoring the buffer restores admission.
  net.set_port_buffer_factor(0, 1.0);
  net.inject(make_frame(1, 0, Bytes::kib(16)));
  net.inject(make_frame(2, 0, Bytes::kib(16)));
  eng.run();
  EXPECT_EQ(sink.frames.size(), 3u);
}

// ---------------------------------------------------------------------
// INIC card reset + retry budget
// ---------------------------------------------------------------------

struct InicPairRig {
  explicit InicPairRig(inic::InicConfig cfg = inic::InicConfig::ideal()) {
    network = std::make_unique<net::Network>(eng, 2);
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

TEST(InicFaults, ResetWindowStallsTheDatapath) {
  InicPairRig rig;
  rig.card_a->begin_reset(Time::millis(10));
  EXPECT_TRUE(rig.card_a->in_reset());

  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c) -> sim::Process {
    co_await c.dma_to_host(Bytes::kib(64));
  }(*rig.card_a));
  const Time done = group.join();
  // The DMA booked after the window: nothing moves on a resetting card.
  EXPECT_GE(done, Time::millis(10));
  EXPECT_FALSE(rig.card_a->in_reset());
}

TEST(InicFaults, ResetWindowDropsArrivingFrames) {
  InicPairRig rig;
  rig.card_b->begin_reset(Time::millis(50));
  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::kib(16), 0, std::any{});
  }(*rig.card_a));
  group.join();  // sender completes when the burst leaves the card

  EXPECT_GT(rig.card_b->reset_drops(), 0u);
  EXPECT_EQ(rig.card_b->bytes_to_host(), Bytes::zero());
}

TEST(InicFaults, RetryBudgetSurfacesPeerUnreachable) {
  inic::InicConfig cfg = inic::InicConfig::ideal();
  cfg.hw_retransmit = true;
  cfg.retransmit_timeout = Time::millis(1);
  cfg.max_retries = 3;
  InicPairRig rig(cfg);
  rig.network->set_link_state(1, false);  // peer is gone for good

  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::kib(64), 0, std::any{});
  }(*rig.card_a));
  EXPECT_THROW(group.join(), inic::PeerUnreachableError);

  EXPECT_TRUE(rig.card_a->peer_unreachable(1));
  EXPECT_EQ(rig.card_a->peers_lost(), 1u);
  // Exactly max_retries go-back-N rounds ran before the card gave up.
  EXPECT_GT(rig.card_a->retransmits(), 0u);
  // Fail-fast on the dead peer from now on.
  EXPECT_THROW(
      {
        sim::ProcessGroup again(rig.eng);
        again.spawn([](inic::InicCard& c) -> sim::Process {
          co_await c.send_stream(1, Bytes(1), 1, std::any{});
        }(*rig.card_a));
        again.join();
      },
      inic::PeerUnreachableError);
}

TEST(InicFaults, RetransmitBackoffSlowsRetryRounds) {
  // With backoff 2.0 and a cap, N fruitless rounds take ~timeout * (2^N -
  // 1), much longer than N * timeout.  Compare against a no-backoff run.
  auto rounds_time = [](double backoff) {
    inic::InicConfig cfg = inic::InicConfig::ideal();
    cfg.hw_retransmit = true;
    cfg.retransmit_timeout = Time::millis(1);
    cfg.retransmit_backoff = backoff;
    cfg.retransmit_timeout_cap = Time::millis(64);
    cfg.max_retries = 5;
    InicPairRig rig(cfg);
    rig.network->set_link_state(1, false);
    sim::ProcessGroup group(rig.eng);
    // 4 bursts against 2 credits: the sender blocks on flow control, so
    // the budget-exhaustion verdict has someone to wake and fail.
    group.spawn([](inic::InicCard& c) -> sim::Process {
      co_await c.send_stream(1, Bytes::kib(64), 0, std::any{});
    }(*rig.card_a));
    EXPECT_THROW(group.join(), inic::PeerUnreachableError);
    return rig.eng.now();
  };
  const Time flat = rounds_time(1.0);
  const Time backed_off = rounds_time(2.0);
  EXPECT_GT(backed_off.as_seconds(), flat.as_seconds() * 2.0);
}

// ---------------------------------------------------------------------
// Collective trigger primitives (the NIC-resident collective building
// block): arm/fire, stash-before-arm, per-source dedup, retired-tag
// late-duplicate swallowing — all without host CPU or IRQ cost.
// ---------------------------------------------------------------------

constexpr std::uint64_t kTag = inic::InicCard::kTriggerTagSpace | 0x42;

sim::Process stream_to(inic::InicCard& card, int dst, std::uint64_t tag) {
  co_await card.send_stream(dst, Bytes(64), tag, std::any{});
}

TEST(InicTriggers, ArmedTriggerFiresOnArrivalWithoutHostCost) {
  InicPairRig rig;
  int fires = 0;
  bool saw_last = false;
  rig.card_b->arm_trigger(kTag, 1,
                          [&](proto::Message&& msg, bool last) {
                            ++fires;
                            saw_last = last;
                            EXPECT_EQ(msg.src, 0);
                            EXPECT_EQ(msg.tag, kTag);
                          });
  EXPECT_EQ(rig.card_b->armed_triggers(), 1u);

  sim::ProcessGroup group(rig.eng);
  group.spawn(stream_to(*rig.card_a, 1, kTag));
  group.join();

  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(saw_last);
  EXPECT_EQ(rig.card_b->armed_triggers(), 0u);
  EXPECT_EQ(rig.card_b->trigger_fires(), 1u);
  // The defining property: the trigger path schedules no host work.
  EXPECT_EQ(rig.node_b->cpu().total_compute_time(), Time::zero());
  EXPECT_EQ(rig.node_b->cpu().interrupts_serviced(), 0u);
}

TEST(InicTriggers, EarlyMessageIsStashedUntilArmed) {
  InicPairRig rig;
  sim::ProcessGroup group(rig.eng);
  group.spawn(stream_to(*rig.card_a, 1, kTag));
  group.join();  // message fully arrived before any trigger exists

  EXPECT_EQ(rig.card_b->armed_triggers(), 0u);
  EXPECT_EQ(rig.card_b->stashed_trigger_messages(), 1u);

  int fires = 0;
  rig.card_b->arm_trigger(kTag, 1,
                          [&](proto::Message&&, bool) { ++fires; });
  // Arming replays the stash synchronously.
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(rig.card_b->stashed_trigger_messages(), 0u);
  EXPECT_EQ(rig.card_b->armed_triggers(), 0u);
}

TEST(InicTriggers, DuplicateSourceCombinesExactlyOnce) {
  // Three cards: the target expects one message from each of two
  // sources; one source double-sends (modeling a fallback re-carry).
  sim::Engine eng;
  net::Network network(eng, 3);
  hw::Node node_a(eng, 0), node_b(eng, 1), node_c(eng, 2);
  inic::InicCard card_a(node_a, network, inic::InicConfig::ideal());
  inic::InicCard card_b(node_b, network, inic::InicConfig::ideal());
  inic::InicCard card_c(node_c, network, inic::InicConfig::ideal());

  int fires = 0;
  bool last_on_second_source = false;
  card_c.arm_trigger(kTag, 2, [&](proto::Message&& msg, bool last) {
    ++fires;
    if (last) last_on_second_source = msg.src == 1;
  });

  sim::ProcessGroup group(eng);
  group.spawn(stream_to(card_a, 2, kTag));
  group.spawn(stream_to(card_a, 2, kTag));  // duplicate from the same src
  group.spawn(stream_to(card_b, 2, kTag));
  group.join();

  EXPECT_EQ(fires, 2);  // once per distinct source
  EXPECT_TRUE(last_on_second_source);
  EXPECT_EQ(card_c.trigger_duplicates(), 1u);
  EXPECT_EQ(card_c.armed_triggers(), 0u);
  EXPECT_EQ(card_c.stashed_trigger_messages(), 0u);
}

TEST(InicTriggers, RetiredTagSwallowsLateDuplicates) {
  InicPairRig rig;
  rig.card_b->arm_trigger(kTag, 1, [](proto::Message&&, bool) {});
  sim::ProcessGroup first(rig.eng);
  first.spawn(stream_to(*rig.card_a, 1, kTag));
  first.join();
  EXPECT_EQ(rig.card_b->armed_triggers(), 0u);

  // A second arrival on the retired tag must be dropped, not stashed.
  sim::ProcessGroup second(rig.eng);
  second.spawn(stream_to(*rig.card_a, 1, kTag));
  second.join();
  EXPECT_EQ(rig.card_b->stashed_trigger_messages(), 0u);
  EXPECT_EQ(rig.card_b->trigger_duplicates(), 1u);
  EXPECT_TRUE(rig.card_b->card_inbox().empty());
}

TEST(InicTriggers, NonTriggerTagsStillReachTheCardInbox) {
  InicPairRig rig;
  rig.card_b->arm_trigger(kTag, 1, [](proto::Message&&, bool) {});
  sim::ProcessGroup group(rig.eng);
  group.spawn(stream_to(*rig.card_a, 1, /*tag=*/7));
  group.join();
  // An ordinary message flows past the trigger table untouched.
  EXPECT_EQ(rig.card_b->card_inbox().size(), 1u);
  EXPECT_EQ(rig.card_b->armed_triggers(), 1u);
  EXPECT_EQ(rig.card_b->trigger_fires(), 0u);
}

TEST(InicTriggers, RejectsInvalidArms) {
  InicPairRig rig;
  EXPECT_THROW(rig.card_a->arm_trigger(/*tag=*/7, 1,
                                       [](proto::Message&&, bool) {}),
               std::invalid_argument);
  EXPECT_THROW(rig.card_a->arm_trigger(kTag, 0,
                                       [](proto::Message&&, bool) {}),
               std::invalid_argument);
  rig.card_a->arm_trigger(kTag, 1, [](proto::Message&&, bool) {});
  EXPECT_THROW(rig.card_a->arm_trigger(kTag, 1,
                                       [](proto::Message&&, bool) {}),
               std::logic_error);
}

// ---------------------------------------------------------------------
// FaultInjector: plan validation and event arming
// ---------------------------------------------------------------------

TEST(FaultInjector, ArmsAndFiresPlanEdges) {
  apps::SimCluster cluster(2, apps::Interconnect::kGigabitTcp);
  fault::FaultPlan plan;
  plan.with_link_down(1, Time::millis(1), Time::millis(2))
      .with_port_degrade(0, Time::millis(1), Time::millis(2), 0.1);
  fault::FaultInjector injector(cluster, plan);
  EXPECT_EQ(injector.events_fired(), 0u);
  cluster.engine().run();
  EXPECT_EQ(injector.events_fired(), 4u);  // two opens + two closes
  EXPECT_TRUE(cluster.network().link_up(1));  // restored at close
}

TEST(FaultInjector, RejectsInvalidPlans) {
  apps::SimCluster tcp_cluster(2, apps::Interconnect::kGigabitTcp);
  fault::FaultPlan resets;
  resets.with_card_reset(0, Time::millis(1), Time::millis(1));
  EXPECT_THROW(fault::FaultInjector(tcp_cluster, resets),
               std::invalid_argument);

  apps::SimCluster small(2, apps::Interconnect::kGigabitTcp);
  fault::FaultPlan bad_node;
  bad_node.with_link_down(5, Time::millis(1), Time::millis(1));
  EXPECT_THROW(fault::FaultInjector(small, bad_node), std::out_of_range);
}

TEST(FaultInjector, RejectsMultiLpClusterAtConstruction) {
  // Window edges all fire on LP 0, so even a card-reset-only plan (which
  // touches no fabric hook) would reset another LP's card from LP 0.
  apps::ClusterOptions opts;
  opts.topology = net::TopologyConfig::fat_tree(2);
  opts.engine_threads = 2;
  apps::SimCluster cluster(8, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), opts);
  ASSERT_GT(cluster.partition().lp_count, 1u);
  fault::FaultPlan resets;
  resets.with_card_reset(5, Time::millis(1), Time::millis(1));
  try {
    fault::FaultInjector injector(cluster, resets);
    FAIL() << "a multi-LP cluster was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(cluster.partition().lp_count) + " LPs"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Watchdog + deadlock diagnostics
// ---------------------------------------------------------------------

TEST(Watchdog, TimeBudgetTurnsLivelockIntoDiagnostic) {
  sim::Engine eng;
  eng.set_time_budget(Time::millis(100));
  sim::ProcessGroup group(eng);
  group.spawn([](sim::Engine& e) -> sim::Process {
    for (;;) co_await sim::Delay{e, Time::millis(1)};  // never converges
  }(eng),
              "spinner");
  try {
    group.join();
    FAIL() << "expected WatchdogTimeout";
  } catch (const sim::WatchdogTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budget"), std::string::npos) << what;
    EXPECT_NE(what.find("spinner"), std::string::npos) << what;
  }
}

TEST(Watchdog, DeadlockReportNamesBlockedProcesses) {
  sim::Engine eng;
  sim::Channel<int> never(eng);
  sim::ProcessGroup group(eng);
  group.spawn([](sim::Channel<int>& ch) -> sim::Process {
    (void)co_await ch.recv();  // nothing ever sends
  }(never),
              "starved-receiver");
  group.spawn([](sim::Engine& e) -> sim::Process {
    co_await sim::Delay{e, Time::micros(1)};
  }(eng),
              "finishes-fine");
  try {
    group.join();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("starved-receiver"), std::string::npos) << what;
    EXPECT_EQ(what.find("finishes-fine"), std::string::npos) << what;
    EXPECT_NE(what.find("1 of 2"), std::string::npos) << what;
  }
}

TEST(Watchdog, HealthyRunsAreUnaffectedByTheBudget) {
  sim::Engine eng;
  eng.set_time_budget(Time::seconds(10));
  sim::ProcessGroup group(eng);
  group.spawn([](sim::Engine& e) -> sim::Process {
    co_await sim::Delay{e, Time::millis(5)};
  }(eng));
  EXPECT_EQ(group.join(), Time::millis(5));
}

}  // namespace
}  // namespace acc
