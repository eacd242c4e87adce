// Randomized stress tests of the simulation kernel: many interleaved
// processes, channels, and resources with seeded random structure.  The
// invariants checked are the kernel's contracts — conservation (every
// sent item received exactly once), monotonic time, FIFO resource
// accounting — across 20 random topologies.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"

namespace acc::sim {
namespace {

struct StressWorld {
  explicit StressWorld(std::uint64_t seed) : rng(seed) {}
  Engine eng;
  Rng rng;
  std::vector<std::unique_ptr<Channel<int>>> channels;
  std::vector<std::unique_ptr<FifoResource>> resources;
  std::uint64_t items_sent = 0;
  std::uint64_t items_received = 0;
};

Process producer(StressWorld& w, Channel<int>& ch, std::size_t n,
                 std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    co_await Delay{w.eng, Time::micros(static_cast<double>(rng.below(50)))};
    if (!w.resources.empty() && rng.chance(0.3)) {
      auto& res = *w.resources[rng.below(w.resources.size())];
      co_await res.transfer(Bytes(1 + rng.below(4096)));
    }
    ch.send_now(static_cast<int>(i));
    ++w.items_sent;
  }
}

Process consumer(StressWorld& w, Channel<int>& ch, std::size_t n,
                 std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    (void)co_await ch.recv();
    ++w.items_received;
    if (rng.chance(0.2)) {
      co_await Delay{w.eng, Time::micros(static_cast<double>(rng.below(80)))};
    }
  }
}

class KernelStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelStress, RandomTopologyConservesItems) {
  StressWorld w(GetParam());
  const std::size_t n_channels = 2 + w.rng.below(6);
  const std::size_t n_resources = 1 + w.rng.below(3);
  for (std::size_t c = 0; c < n_channels; ++c) {
    w.channels.push_back(std::make_unique<Channel<int>>(w.eng));
  }
  for (std::size_t r = 0; r < n_resources; ++r) {
    w.resources.push_back(std::make_unique<FifoResource>(
        w.eng, Bandwidth::mib_per_sec(1.0 + static_cast<double>(w.rng.below(100)))));
  }

  ProcessGroup group(w.eng);
  std::size_t expected = 0;
  for (std::size_t c = 0; c < n_channels; ++c) {
    const std::size_t items = 10 + w.rng.below(150);
    expected += items;
    group.spawn(producer(w, *w.channels[c], items, GetParam() * 100 + c));
    group.spawn(consumer(w, *w.channels[c], items, GetParam() * 200 + c));
  }
  const Time end = group.join();

  EXPECT_EQ(w.items_sent, expected);
  EXPECT_EQ(w.items_received, expected);
  EXPECT_GT(end, Time::zero());
  for (auto& ch : w.channels) {
    EXPECT_TRUE(ch->empty());
  }
  // Resource accounting: utilization within [0, 1].
  for (auto& res : w.resources) {
    EXPECT_GE(res->utilization(), 0.0);
    EXPECT_LE(res->utilization(), 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelStress,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(KernelStress, ManyProcessesOnOneSemaphore) {
  Engine eng;
  Semaphore sem(eng, 3);
  int active = 0, peak = 0, completed = 0;
  ProcessGroup group(eng);
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    group.spawn([](Engine& e, Semaphore& s, int& act, int& pk, int& done,
                   Time hold) -> Process {
      co_await s.acquire();
      ++act;
      pk = std::max(pk, act);
      co_await Delay{e, hold};
      --act;
      ++done;
      s.release();
    }(eng, sem, active, peak, completed,
      Time::micros(1.0 + static_cast<double>(rng.below(100)))));
  }
  group.join();
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(peak, 3);
}

TEST(KernelStress, LatchFanInAtScale) {
  Engine eng;
  constexpr std::size_t kWorkers = 500;
  Latch latch(eng, kWorkers);
  Time released = Time::zero();
  ProcessGroup group(eng);
  group.spawn([](Latch& l, Engine& e, Time& at) -> Process {
    co_await l.wait();
    at = e.now();
  }(latch, eng, released));
  Rng rng(5);
  Time latest = Time::zero();
  for (std::size_t i = 0; i < kWorkers; ++i) {
    const Time work = Time::micros(static_cast<double>(rng.below(1000)));
    latest = std::max(latest, work);
    group.spawn([](Latch& l, Engine& e, Time t) -> Process {
      co_await Delay{e, t};
      l.count_down();
    }(latch, eng, work));
  }
  group.join();
  EXPECT_EQ(released, latest);
}

}  // namespace
}  // namespace acc::sim
