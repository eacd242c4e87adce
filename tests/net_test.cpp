// Network-substrate tests: switch forwarding and latency, egress
// serialization and contention, drop-tail loss, NIC transmit/receive
// paths and their interaction with interrupt coalescing.
#include "net/network.hpp"
#include "net/nic.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/node.hpp"
#include "model/calibration.hpp"
#include "recording_endpoint.hpp"
#include "sim/process.hpp"

namespace acc::net {
namespace {

using test::make_frame;
using test::RecordingEndpoint;

TEST(Network, DeliversFrameWithLatencyAndSerialization) {
  sim::Engine eng;
  NetworkConfig cfg;
  cfg.line_rate = Bandwidth::gbit_per_sec(1.0);
  cfg.link_latency = Time::micros(1);
  cfg.switch_latency = Time::micros(4);
  Network net(eng, 2, cfg);
  RecordingEndpoint a(eng), b(eng);
  net.attach(0, a);
  net.attach(1, b);

  const Frame f = make_frame(0, 1, Bytes(12462), 1);  // 12.5 KB wire
  net.inject(f);
  eng.run();

  ASSERT_EQ(b.frames.size(), 1u);
  // ingress link (1us) + switch (4us) + serialization (12500B @ 125MB/s
  // = 100us) + egress link (1us) = 106us.
  EXPECT_EQ(b.times[0], Time::micros(106));
  EXPECT_EQ(net.frames_forwarded(), 1u);
  EXPECT_EQ(net.frames_dropped(), 0u);
}

TEST(Network, EgressPortSerializesCompetingSenders) {
  sim::Engine eng;
  Network net(eng, 3, {});
  RecordingEndpoint sink(eng), other(eng), third(eng);
  net.attach(0, sink);
  net.attach(1, other);
  net.attach(2, third);

  // Two simultaneous senders to port 0: second frame queues behind first.
  net.inject(make_frame(1, 0, Bytes(125000), 86));
  net.inject(make_frame(2, 0, Bytes(125000), 86));
  eng.run();

  ASSERT_EQ(sink.frames.size(), 2u);
  const Time gap = sink.times[1] - sink.times[0];
  // The gap is one full serialization of the second frame's wire size.
  const Time serialization =
      transfer_time(sink.frames[1].wire, Bandwidth::gbit_per_sec(1.0));
  EXPECT_EQ(gap, serialization);
}

TEST(Network, DropsWhenOutputBufferOverflows) {
  sim::Engine eng;
  NetworkConfig cfg;
  cfg.port_buffer = Bytes::kib(64);
  Network net(eng, 3, cfg);
  RecordingEndpoint sink(eng), other(eng), third(eng);
  net.attach(0, sink);
  net.attach(1, other);
  net.attach(2, third);

  // Three 40 KiB bursts at the same instant: only the first fits the
  // 64 KiB output buffer; the other two arrive while it is still
  // serializing and are tail-dropped.
  for (int src : {1, 2, 1}) {
    net.inject(make_frame(src, 0, Bytes::kib(40), 28));
  }
  eng.run();
  EXPECT_EQ(net.frames_dropped(), 2u);
  EXPECT_EQ(sink.frames.size(), 1u);
  EXPECT_GT(net.peak_buffer_occupancy().count(), 0u);
}

TEST(Network, ThroughputMatchesLineRate) {
  sim::Engine eng;
  NetworkConfig cfg;
  cfg.line_rate = Bandwidth::mbit_per_sec(100.0);  // Fast Ethernet
  cfg.port_buffer = Bytes::mib(4);  // hold the whole train; we measure rate
  Network net(eng, 2, cfg);
  RecordingEndpoint a(eng), b(eng);
  net.attach(0, a);
  net.attach(1, b);

  // 10 frames x 125 KB = 1.25 MB at 12.5 MB/s -> 100 ms of serialization.
  for (int i = 0; i < 10; ++i) {
    net.inject(make_frame(0, 1, Bytes(125000), 86));
  }
  eng.run();
  ASSERT_EQ(b.frames.size(), 10u);
  const double seconds = b.times.back().as_seconds();
  const double bytes = 10.0 * b.frames[0].wire.count();
  EXPECT_NEAR(bytes / seconds, 12.5e6, 0.03 * 12.5e6);
}

TEST(Network, RejectsUnattachedDestination) {
  sim::Engine eng;
  Network net(eng, 2, {});
  RecordingEndpoint a(eng);
  net.attach(0, a);
  EXPECT_THROW(net.inject(make_frame(0, 1, Bytes(100))), std::logic_error);
}

/// The calibration with the 120 us interrupt-coalescing timeout these
/// NIC tests were written against.
model::Calibration nic_rig_calibration() {
  model::Calibration cal;
  cal.interrupt_coalesce_timeout = Time::micros(120);
  return cal;
}

struct NicRig {
  explicit NicRig(const model::Calibration& c = nic_rig_calibration())
      : cal(c) {
    network = std::make_unique<Network>(eng, 2);
    node_a = std::make_unique<hw::Node>(eng, 0, cal);
    node_b = std::make_unique<hw::Node>(eng, 1, cal);
    nic_a = std::make_unique<StandardNic>(*node_a, *network);
    nic_b = std::make_unique<StandardNic>(*node_b, *network);
  }
  model::Calibration cal;
  sim::Engine eng;
  std::unique_ptr<Network> network;
  std::unique_ptr<hw::Node> node_a, node_b;
  std::unique_ptr<StandardNic> nic_a, nic_b;
};

TEST(Nic, TransmitReachesPeerRxHandler) {
  NicRig rig;
  std::vector<Frame> got;
  rig.nic_b->set_rx_handler([&](const Frame& f) { got.push_back(f); });

  sim::ProcessGroup group(rig.eng);
  group.spawn([](StandardNic& nic) -> sim::Process {
    Frame f;
    f.src = 0;
    f.dst = 1;
    f.payload = Bytes::kib(32);
    f.wire = Bytes::kib(32) + Bytes(38 * 23);
    f.packet_count = 23;
    f.seq = 99;
    co_await nic.transmit(f);
  }(*rig.nic_a));
  group.join();
  rig.eng.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 99u);
  EXPECT_EQ(rig.nic_a->frames_sent(), 1u);
  EXPECT_EQ(rig.nic_b->frames_received(), 1u);
  EXPECT_GT(rig.nic_b->interrupts_fired(), 0u);
}

TEST(Nic, ReceiveChargesPerPacketCpuWork) {
  model::Calibration cal = nic_rig_calibration();
  cal.per_packet_host_cost = Time::micros(10);
  NicRig rig(cal);
  rig.nic_b->set_rx_handler([](const Frame&) {});

  sim::ProcessGroup group(rig.eng);
  group.spawn([](StandardNic& nic) -> sim::Process {
    Frame f;
    f.src = 0;
    f.dst = 1;
    f.payload = Bytes::kib(16);
    f.wire = Bytes::kib(16) + Bytes(38 * 12);
    f.packet_count = 12;
    co_await nic.transmit(f);
  }(*rig.nic_a));
  group.join();
  rig.eng.run();

  EXPECT_EQ(rig.node_b->cpu().total_protocol_time(), Time::micros(120));
}

TEST(Nic, LoneFrameWaitsForCoalescingTimeout) {
  model::Calibration lazy = nic_rig_calibration();
  lazy.interrupt_coalesce_frames = 64;
  lazy.interrupt_coalesce_timeout = Time::micros(300);
  NicRig rig(lazy);
  std::vector<Time> arrival;
  rig.nic_b->set_rx_handler(
      [&](const Frame&) { arrival.push_back(rig.eng.now()); });

  sim::ProcessGroup group(rig.eng);
  group.spawn([](StandardNic& nic) -> sim::Process {
    Frame f;
    f.src = 0;
    f.dst = 1;
    f.payload = Bytes(1000);
    f.wire = Bytes(1038);
    f.packet_count = 1;
    co_await nic.transmit(f);
  }(*rig.nic_a));
  group.join();
  rig.eng.run();

  ASSERT_EQ(arrival.size(), 1u);
  // Wire time is ~14us; the 300us coalescing timeout dominates delivery.
  EXPECT_GT(arrival[0], Time::micros(300));
}

TEST(Nic, BackToBackTransmitsRespectLineRate) {
  NicRig rig;
  std::vector<Time> arrival;
  rig.nic_b->set_rx_handler(
      [&](const Frame&) { arrival.push_back(rig.eng.now()); });

  sim::ProcessGroup group(rig.eng);
  group.spawn([](StandardNic& nic) -> sim::Process {
    for (int i = 0; i < 4; ++i) {
      Frame f;
      f.src = 0;
      f.dst = 1;
      f.payload = Bytes::kib(64);
      f.wire = Bytes::kib(64) + Bytes(38 * 45);
      f.packet_count = 45;
      co_await nic.transmit(f);
    }
  }(*rig.nic_a));
  group.join();
  rig.eng.run();

  ASSERT_EQ(arrival.size(), 4u);
  // Arrivals are spaced by at least one burst serialization at GigE rate.
  const Time spacing =
      transfer_time(Bytes::kib(64), Bandwidth::gbit_per_sec(1.0));
  for (std::size_t i = 1; i < arrival.size(); ++i) {
    EXPECT_GE(arrival[i] - arrival[i - 1], spacing * 0.9);
  }
}

}  // namespace
}  // namespace acc::net
