// Host hardware-model tests: memory-hierarchy cost curves, CPU
// accounting, DMA efficiency (the 64 KB rule), interrupt coalescing.
#include "hw/cpu.hpp"
#include "hw/dma.hpp"
#include "hw/interrupts.hpp"
#include "hw/memory.hpp"
#include "hw/node.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "sim/process.hpp"

namespace acc::hw {
namespace {

TEST(Memory, BandwidthIsMonotoneInWorkingSet) {
  MemoryHierarchy mem;
  double prev = 1e18;
  for (std::uint64_t ws = 1024; ws <= 64 * 1024 * 1024; ws *= 2) {
    const double bw = mem.effective_bandwidth(Bytes(ws)).bytes_per_second();
    EXPECT_LE(bw, prev + 1.0) << "ws=" << ws;
    prev = bw;
  }
}

TEST(Memory, PlateausMatchConfiguredLevels) {
  const model::Calibration cal;
  MemoryHierarchy mem(cal);
  EXPECT_DOUBLE_EQ(mem.effective_bandwidth(Bytes::kib(16)).bytes_per_second(),
                   cal.l1_bandwidth.bytes_per_second());
  EXPECT_DOUBLE_EQ(mem.effective_bandwidth(Bytes::kib(256)).bytes_per_second(),
                   cal.l2_bandwidth.bytes_per_second());
  EXPECT_DOUBLE_EQ(mem.effective_bandwidth(Bytes::mib(64)).bytes_per_second(),
                   cal.dram_bandwidth.bytes_per_second());
}

TEST(Memory, BlendIsContinuousAcrossBoundaries) {
  MemoryHierarchy mem;
  // Sample around the L2 boundary: no jumps bigger than ~15% per 5% step.
  double prev =
      mem.effective_bandwidth(Bytes::kib(256)).bytes_per_second();
  for (double ws = 256.0 * 1024; ws <= 520.0 * 1024; ws *= 1.05) {
    const double bw = mem.effective_bandwidth(Bytes(static_cast<std::uint64_t>(ws)))
                          .bytes_per_second();
    EXPECT_GT(bw, 0.80 * prev);
    prev = bw;
  }
}

TEST(Memory, StridedPenaltyOnlyOutOfCache) {
  MemoryHierarchy mem;
  EXPECT_DOUBLE_EQ(mem.strided_penalty(Bytes::kib(128)), 1.0);
  EXPECT_DOUBLE_EQ(mem.strided_penalty(Bytes::mib(4)), 3.0);
  const double mid = mem.strided_penalty(Bytes::kib(384));
  EXPECT_GT(mid, 1.0);
  EXPECT_LT(mid, 3.0);
  EXPECT_EQ(mem.strided_pass_time(Bytes::mib(4), Bytes::mib(4)),
            mem.pass_time(Bytes::mib(4), Bytes::mib(4)) * 3.0);
}

TEST(Cpu, SerializesComputeRequests) {
  sim::Engine eng;
  Cpu cpu(eng, model::default_calibration());
  std::vector<Time> done;
  sim::ProcessGroup group(eng);
  for (int i = 0; i < 3; ++i) {
    group.spawn([](Cpu& c, sim::Engine& e, std::vector<Time>& out) -> sim::Process {
      co_await c.compute(Time::millis(10));
      out.push_back(e.now());
    }(cpu, eng, done));
  }
  group.join();
  EXPECT_EQ(done[0], Time::millis(10));
  EXPECT_EQ(done[1], Time::millis(20));
  EXPECT_EQ(done[2], Time::millis(30));
  EXPECT_EQ(cpu.total_compute_time(), Time::millis(30));
}

TEST(Cpu, FlopsTimeUsesConfiguredRate) {
  sim::Engine eng;
  model::Calibration cal;
  cal.host_fft_mflops = 100.0;
  Cpu cpu(eng, cal);
  EXPECT_EQ(cpu.flops_time(1e8), Time::seconds(1.0));
}

TEST(Cpu, InterruptAndProtocolChargesAccumulate) {
  sim::Engine eng;
  Cpu cpu(eng, model::default_calibration());
  cpu.charge_interrupt(Time::micros(10));
  cpu.charge_interrupt(Time::micros(10));
  cpu.charge_protocol_work(Time::micros(50));
  EXPECT_EQ(cpu.interrupts_serviced(), 2u);
  EXPECT_EQ(cpu.total_interrupt_time(), Time::micros(20));
  EXPECT_EQ(cpu.total_protocol_time(), Time::micros(50));
}

TEST(Dma, EfficiencyRisesWithTransferSize) {
  sim::Engine eng;
  sim::FifoResource bus(eng, Bandwidth::mib_per_sec(132.0));
  DmaEngine dma(bus, model::default_calibration());
  const double tiny = dma.efficiency(Bytes(1024));
  const double small = dma.efficiency(Bytes::kib(16));
  const double threshold = dma.efficiency(Bytes::kib(64));
  EXPECT_LT(tiny, small);
  EXPECT_LT(small, threshold);
  // The paper's 64 KB rule: at the threshold the DMA is mostly payload.
  EXPECT_GT(threshold, 0.95);
  EXPECT_LT(tiny, 0.60);
}

TEST(Dma, TransferTimeIncludesPerBurstSetup) {
  sim::Engine eng;
  sim::FifoResource bus(eng, Bandwidth::mib_per_sec(132.0));
  model::Calibration cal;
  cal.dma_setup = Time::micros(8);
  cal.dma_efficiency_threshold = Bytes::kib(64);
  DmaEngine dma(bus, cal);
  Time done = Time::zero();
  sim::ProcessGroup group(eng);
  group.spawn([](DmaEngine& d, sim::Engine& e, Time& out) -> sim::Process {
    co_await d.transfer(Bytes::kib(128));  // 2 bursts -> 2 setups
    out = e.now();
  }(dma, eng, done));
  group.join();
  const Time payload =
      transfer_time(Bytes::kib(128), Bandwidth::mib_per_sec(132.0));
  EXPECT_EQ(done, payload + Time::micros(16));
}

TEST(Interrupts, CountThresholdFiresImmediately) {
  sim::Engine eng;
  Cpu cpu(eng, model::default_calibration());
  std::vector<std::size_t> batches;
  model::Calibration cal;
  cal.interrupt_coalesce_frames = 4;
  cal.interrupt_coalesce_timeout = Time::millis(100);
  InterruptCoalescer ic(eng, cpu, cal,
                        [&](std::size_t n) { batches.push_back(n); });
  for (int i = 0; i < 4; ++i) ic.notify_frame();
  eng.run_window(Time::millis(1));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], 4u);
  EXPECT_EQ(ic.interrupts_fired(), 1u);
}

TEST(Interrupts, TimeoutFiresForPartialBatch) {
  sim::Engine eng;
  Cpu cpu(eng, model::default_calibration());
  std::vector<std::size_t> batches;
  model::Calibration cal;
  cal.interrupt_coalesce_frames = 16;
  cal.interrupt_coalesce_timeout = Time::micros(100);
  InterruptCoalescer ic(eng, cpu, cal,
                        [&](std::size_t n) { batches.push_back(n); });
  ic.notify_frame();
  ic.notify_frame();
  eng.run();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], 2u);
}

TEST(Interrupts, BurstNotificationSplitsIntoBatches) {
  sim::Engine eng;
  Cpu cpu(eng, model::default_calibration());
  std::vector<std::size_t> batches;
  model::Calibration cal;
  cal.interrupt_coalesce_frames = 16;
  cal.interrupt_coalesce_timeout = Time::micros(100);
  InterruptCoalescer ic(eng, cpu, cal,
                        [&](std::size_t n) { batches.push_back(n); });
  ic.notify_frames(45);  // 2 full batches + 13 left for the timeout
  eng.run();
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0], 16u);
  EXPECT_EQ(batches[1], 16u);
  EXPECT_EQ(batches[2], 13u);
  EXPECT_EQ(ic.interrupts_fired(), 3u);
}

TEST(Interrupts, EachInterruptChargesCpu) {
  sim::Engine eng;
  Cpu cpu(eng, model::default_calibration());
  model::Calibration cal;
  cal.interrupt_coalesce_frames = 1;
  cal.interrupt_cost = Time::micros(12);
  InterruptCoalescer ic(eng, cpu, cal, [](std::size_t) {});
  for (int i = 0; i < 5; ++i) ic.notify_frame();
  eng.run();
  EXPECT_EQ(cpu.interrupts_serviced(), 5u);
  EXPECT_EQ(cpu.total_interrupt_time(), Time::micros(60));
}

// Devices keep a reference to the calibration, so a temporary is refused.
static_assert(!std::is_constructible_v<Node, sim::Engine&, int,
                                       model::Calibration&&>);
static_assert(!std::is_constructible_v<MemoryHierarchy, model::Calibration&&>);

TEST(Node, WiresComponentsTogether) {
  sim::Engine eng;
  model::Calibration cal;
  cal.host_pci_bus = Bandwidth::mib_per_sec(132.0);
  Node node(eng, 3, cal);
  EXPECT_EQ(node.id(), 3);
  EXPECT_DOUBLE_EQ(node.pci_bus().rate().bytes_per_second(),
                   132.0 * 1024 * 1024);
  EXPECT_EQ(&node.engine(), &eng);
}

}  // namespace
}  // namespace acc::hw
