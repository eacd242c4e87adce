// Fault-injection subsystem tests: the Gilbert–Elliott loss chain's
// statistics, exact-window semantics of link outages, corruption
// (delivered-but-CRC-failed), per-port degradation, buffer shrink, INIC
// card resets, the go-back-N retry budget, bounded receive state under
// heavy loss, and the engine watchdog / deadlock diagnostics the
// recovery paths rely on.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/cluster.hpp"
#include "common/rng.hpp"
#include "fault/gilbert_elliott.hpp"
#include "hw/node.hpp"
#include "inic/card.hpp"
#include "model/calibration.hpp"
#include "net/network.hpp"
#include "net/nic.hpp"
#include "recording_endpoint.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "trace/trace.hpp"

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

using net::test::make_frame;
using net::test::RecordingEndpoint;

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
  // The 120 us interrupt-coalescing timeout this test was written against.
  model::Calibration cal;
  cal.interrupt_coalesce_timeout = Time::micros(120);
  hw::Node na(eng, 0, cal), nb(eng, 1, cal);
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

TEST(NetworkFaults, PortBufferFactorOutsideUnitIntervalThrows) {
  sim::Engine eng;
  net::Network net(eng, 2);
  RecordingEndpoint sink(eng), src(eng);
  net.attach(0, sink);
  net.attach(1, src);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.5}) {
    EXPECT_THROW(net.set_port_buffer_factor(0, bad), std::invalid_argument)
        << bad;
  }
  // Both ends of [0, 1] are accepted: no buffer at all drops the frame,
  // the full buffer admits it again.
  EXPECT_NO_THROW(net.set_port_buffer_factor(0, 0.0));
  net.inject(make_frame(1, 0, Bytes(1000)));
  eng.run();
  EXPECT_EQ(sink.frames.size(), 0u);
  EXPECT_EQ(net.frames_dropped(), 1u);
  EXPECT_NO_THROW(net.set_port_buffer_factor(0, 1.0));
  net.inject(make_frame(1, 0, Bytes(1000)));
  eng.run();
  EXPECT_EQ(sink.frames.size(), 1u);
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
  // Each fruitless round doubles the retransmit timeout (below the 32 ms
  // cap), so N rounds against a dead peer take at least
  // timeout * (2^N - 1) before the card gives up; without backoff they
  // would take N * timeout.
  constexpr std::size_t kRounds = 5;
  const Time timeout = Time::millis(1);
  inic::InicConfig cfg = inic::InicConfig::ideal();
  cfg.hw_retransmit = true;
  cfg.retransmit_timeout = timeout;
  cfg.max_retries = kRounds;
  InicPairRig rig(cfg);
  rig.network->set_link_state(1, false);
  sim::ProcessGroup group(rig.eng);
  // 4 bursts against 2 credits: the sender blocks on flow control, so
  // the budget-exhaustion verdict has someone to wake and fail.
  group.spawn([](inic::InicCard& c) -> sim::Process {
    co_await c.send_stream(1, Bytes::kib(64), 0, std::any{});
  }(*rig.card_a));
  EXPECT_THROW(group.join(), inic::PeerUnreachableError);
  EXPECT_GE(rig.eng.now(), timeout * static_cast<double>((1u << kRounds) - 1));
}

TEST(InicFaults, FlushCompletesAtOnceWithoutHwRetransmit) {
  InicPairRig rig;  // hw_retransmit off
  rig.network->set_link_state(1, false);  // no credit can ever come back
  Time sent = Time::zero(), flushed = Time::zero();
  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c, Time& sent,
                 Time& flushed) -> sim::Process {
    co_await c.send_stream(1, Bytes::kib(16), 0, std::any{});
    sent = c.node().engine().now();
    co_await c.flush(1);
    flushed = c.node().engine().now();
  }(*rig.card_a, sent, flushed));
  group.join();
  EXPECT_GT(sent, Time::zero());
  EXPECT_EQ(flushed, sent);
  EXPECT_EQ(rig.card_a->credits_received(), 0u);
}

TEST(InicFaults, FlushWaitsUntilEveryBurstIsCredited) {
  inic::InicConfig cfg = inic::InicConfig::ideal();
  cfg.hw_retransmit = true;
  InicPairRig rig(cfg);
  Time sent = Time::zero(), flushed = Time::zero();
  std::uint64_t credited_at_send = 0, credited_at_flush = 0;
  sim::ProcessGroup group(rig.eng);
  group.spawn([](inic::InicCard& c, Time& sent, Time& flushed,
                 std::uint64_t& at_send,
                 std::uint64_t& at_flush) -> sim::Process {
    co_await c.send_stream(1, Bytes::kib(64), 0, std::any{});
    sent = c.node().engine().now();
    at_send = c.credits_received();
    co_await c.flush(1);
    flushed = c.node().engine().now();
    at_flush = c.credits_received();
  }(*rig.card_a, sent, flushed, credited_at_send, credited_at_flush));
  group.join();
  // The last burst leaves the card before its credit can return.
  EXPECT_LT(credited_at_send, rig.card_a->bursts_sent());
  EXPECT_GT(flushed, sent);
  EXPECT_EQ(credited_at_flush, rig.card_a->bursts_sent());
  EXPECT_EQ(rig.card_b->card_inbox().size(), 1u);
}

TEST(InicFaults, FlushThrowsWhenTheRetryBudgetRunsDry) {
  inic::InicConfig cfg = inic::InicConfig::ideal();
  cfg.hw_retransmit = true;
  cfg.retransmit_timeout = Time::millis(1);
  cfg.max_retries = 3;
  InicPairRig rig(cfg);
  rig.network->set_link_state(1, false);
  bool sent = false;
  sim::ProcessGroup group(rig.eng);
  // One burst fits the credit window, so send_stream returns and the
  // budget runs dry while flush() waits.
  group.spawn([](inic::InicCard& c, bool& sent) -> sim::Process {
    co_await c.send_stream(1, Bytes(64), 0, std::any{});
    sent = true;
    co_await c.flush(1);
  }(*rig.card_a, sent));
  EXPECT_THROW(group.join(), inic::PeerUnreachableError);
  EXPECT_TRUE(sent);
  EXPECT_TRUE(rig.card_a->peer_unreachable(1));
}

TEST(InicFaults, ReceiveStateStaysBoundedUnderHeavyLoss) {
  // 10^5 messages of 1 B to ~40 KB (up to three bursts each) from eight
  // concurrent senders, with 30% of all frames (data and credits) lost.
  // Every message reaches the inbox exactly once, and the receiver's
  // per-source state (streams in assembly plus completed ids above the
  // watermark) stays small instead of remembering every message.
  constexpr std::uint64_t kSenders = 8;
  constexpr std::uint64_t kPerSender = 12'500;
  constexpr std::uint64_t kMessages = kSenders * kPerSender;
  inic::InicConfig cfg = inic::InicConfig::ideal();
  cfg.hw_retransmit = true;
  cfg.retransmit_timeout = Time::millis(1);
  InicPairRig rig(cfg);
  rig.network->set_random_loss(0.3, 31);

  std::vector<int> arrivals(kMessages, 0);
  std::size_t max_state = 0;
  sim::ProcessGroup group(rig.eng);
  for (std::uint64_t s = 0; s < kSenders; ++s) {
    group.spawn([](inic::InicCard& c, std::uint64_t s) -> sim::Process {
      Rng rng(s + 1);
      for (std::uint64_t k = 0; k < kPerSender; ++k) {
        co_await c.send_stream(1, Bytes(1 + rng.below(40'000)),
                               s * kPerSender + k, std::any{});
      }
    }(*rig.card_a, s));
  }
  group.spawn([](inic::InicCard& c, std::vector<int>& arrivals,
                 std::size_t& max_state) -> sim::Process {
    for (std::uint64_t m = 0; m < kMessages; ++m) {
      const proto::Message msg = co_await c.card_inbox().recv();
      ++arrivals.at(msg.tag);
      max_state = std::max(max_state, c.receive_state(0));
    }
  }(*rig.card_b, arrivals, max_state));
  group.join();

  EXPECT_EQ(std::count(arrivals.begin(), arrivals.end(), 1),
            static_cast<std::ptrdiff_t>(kMessages));
  EXPECT_TRUE(rig.card_b->card_inbox().empty());  // no duplicate after all
  EXPECT_GT(rig.card_a->retransmits(), 0u);
  EXPECT_GT(rig.card_b->duplicates_dropped(), 0u);
  EXPECT_LE(max_state, 64u);
  EXPECT_EQ(rig.card_b->receive_state(0), 0u);
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

TEST(InicTriggers, RejectsArmingARetiredTag) {
  InicPairRig rig;
  rig.card_b->arm_trigger(kTag, 1, [](proto::Message&&, bool) {});
  proto::Message msg;
  msg.src = 0;
  msg.tag = kTag;
  rig.card_b->accept_message(std::move(msg));
  ASSERT_EQ(rig.card_b->trigger_fires(), 1u);
  EXPECT_THROW(rig.card_b->arm_trigger(kTag, 1,
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

TEST(FaultInjector, BufferShrinkWindowDropsOnlyWhileOpen) {
  // Node 0's port buffer shrinks to nothing over [1 ms, 3 ms).  TCP data
  // bound for node 0 inside the window is tail-dropped; the transfer to
  // node 2 beside it, the RTO retransmit and a transfer sent after the
  // window all get through.
  const Time open = Time::millis(1);
  const Time close = Time::millis(3);
  apps::SimCluster cluster(3, apps::Interconnect::kGigabitTcp);
  cluster.tracer().enable();
  fault::FaultPlan plan;
  plan.with_buffer_shrink(0, open, close - open, 0.0);
  fault::FaultInjector injector(cluster, plan);

  sim::Engine& eng = cluster.engine();
  auto send_at = [](apps::SimCluster& c, Time at, int src,
                    int dst) -> sim::Process {
    co_await sim::DelayUntil{c.engine(), at};
    co_await c.transfer(src, dst, Bytes::kib(16));
  };
  auto receive = [](apps::SimCluster& c, int node, int n) -> sim::Process {
    for (int i = 0; i < n; ++i) {
      (void)co_await c.inbox(static_cast<std::size_t>(node)).recv();
    }
  };
  sim::ProcessGroup group(eng);
  group.spawn(send_at(cluster, Time::micros(1500), 1, 0));
  group.spawn(send_at(cluster, Time::micros(1500), 1, 2));
  group.spawn(send_at(cluster, Time::millis(4), 2, 0));
  group.spawn(receive(cluster, 0, 2));
  group.spawn(receive(cluster, 2, 1));
  group.join();

  std::vector<std::pair<std::string, Time>> edges;
  std::size_t drops = 0;
  for (const trace::Record& r : cluster.tracer().records()) {
    const std::string name = r.name;
    if (r.category == trace::Category::kFault &&
        r.kind == trace::RecordKind::kInstant) {
      EXPECT_EQ(r.node, 0) << name;
      edges.emplace_back(name, r.ts);
    } else if (name == "net/drop") {
      ++drops;
      EXPECT_EQ(r.node, 0) << "a drop bound for node " << r.node;
      EXPECT_GE(r.ts, open);
      EXPECT_LT(r.ts, close);
    }
  }
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(drops, cluster.network().frames_dropped());
  const std::vector<std::pair<std::string, Time>> expected = {
      {"fault/buffer_shrink", open}, {"fault/buffer_restore", close}};
  EXPECT_EQ(edges, expected);
  EXPECT_EQ(injector.events_fired(), 2u);
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

  for (double factor : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    fault::FaultPlan shrink;
    shrink.with_buffer_shrink(1, Time::millis(1), Time::millis(1), factor);
    EXPECT_THROW(fault::FaultInjector(small, shrink), std::invalid_argument)
        << "buffer_factor " << factor;
  }
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
