// Tests for coroutine processes, channels, synchronization, and FIFO
// bandwidth resources — the substrate every device model relies on.
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace acc::sim {
namespace {

Process sleeper(Engine& eng, Time t, std::vector<Time>& log) {
  co_await Delay{eng, t};
  log.push_back(eng.now());
}

TEST(Process, DelayAdvancesSimTime) {
  Engine eng;
  std::vector<Time> log;
  ProcessGroup group(eng);
  group.spawn(sleeper(eng, Time::millis(5), log));
  group.join();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], Time::millis(5));
}

Process multi_sleeper(Engine& eng, std::vector<Time>& log) {
  co_await Delay{eng, Time::millis(1)};
  log.push_back(eng.now());
  co_await Delay{eng, Time::millis(2)};
  log.push_back(eng.now());
  co_await DelayUntil{eng, Time::millis(10)};
  log.push_back(eng.now());
}

TEST(Process, SequentialDelaysAccumulate) {
  Engine eng;
  std::vector<Time> log;
  ProcessGroup group(eng);
  group.spawn(multi_sleeper(eng, log));
  group.join();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], Time::millis(1));
  EXPECT_EQ(log[1], Time::millis(3));
  EXPECT_EQ(log[2], Time::millis(10));
}

TEST(Process, DelayUntilPastIsImmediate) {
  Engine eng;
  std::vector<Time> log;
  ProcessGroup group(eng);
  group.spawn([](Engine& e, std::vector<Time>& out) -> Process {
    co_await Delay{e, Time::millis(4)};
    co_await DelayUntil{e, Time::millis(2)};  // already past: no suspend
    out.push_back(e.now());
  }(eng, log));
  group.join();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], Time::millis(4));
}

Process child_work(Engine& eng, int& state) {
  co_await Delay{eng, Time::millis(2)};
  state = 42;
}

Process parent_awaits(Engine& eng, int& state, Time& observed) {
  Process child = child_work(eng, state);
  child.bind_engine(eng);
  co_await child;
  observed = eng.now();
}

TEST(Process, AwaitingChildSuspendsUntilItFinishes) {
  Engine eng;
  int state = 0;
  Time observed = Time::zero();
  ProcessGroup group(eng);
  group.spawn(parent_awaits(eng, state, observed));
  group.join();
  EXPECT_EQ(state, 42);
  EXPECT_EQ(observed, Time::millis(2));
}

Process throws_later(Engine& eng) {
  co_await Delay{eng, Time::millis(1)};
  throw std::runtime_error("child failure");
}

TEST(Process, ChildExceptionPropagatesToParent) {
  Engine eng;
  bool caught = false;
  ProcessGroup group(eng);
  group.spawn([](Engine& e, bool& flag) -> Process {
    Process child = throws_later(e);
    child.bind_engine(e);
    try {
      co_await child;
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(eng, caught));
  group.join();
  EXPECT_TRUE(caught);
}

TEST(Process, DetachedRootExceptionSurfacesInJoin) {
  Engine eng;
  ProcessGroup group(eng);
  group.spawn(throws_later(eng));
  EXPECT_THROW(group.join(), std::runtime_error);
}

TEST(Process, DeadlockDetectedByJoin) {
  Engine eng;
  auto ch = std::make_unique<Channel<int>>(eng);
  ProcessGroup group(eng);
  group.spawn([](Channel<int>& c) -> Process { (void)co_await c.recv(); }(*ch));
  EXPECT_THROW(group.join(), std::logic_error);
}

Process producer(Engine& eng, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await Delay{eng, Time::micros(10)};
    ch.send_now(i);
  }
}

Process consumer(Channel<int>& ch, int n, std::vector<int>& out) {
  for (int i = 0; i < n; ++i) {
    out.push_back(co_await ch.recv());
  }
}

TEST(Channel, DeliversInFifoOrder) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> out;
  ProcessGroup group(eng);
  group.spawn(producer(eng, ch, 5));
  group.spawn(consumer(ch, 5, out));
  group.join();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, ReceiverBlocksUntilSend) {
  Engine eng;
  Channel<std::string> ch(eng);
  Time recv_time = Time::zero();
  ProcessGroup group(eng);
  group.spawn([](Channel<std::string>& c, Time& at, Engine& e) -> Process {
    (void)co_await c.recv();
    at = e.now();
  }(ch, recv_time, eng));
  group.spawn([](Channel<std::string>& c, Engine& e) -> Process {
    co_await Delay{e, Time::millis(7)};
    c.send_now("hello");
  }(ch, eng));
  group.join();
  EXPECT_EQ(recv_time, Time::millis(7));
}

TEST(Channel, TryRecvReturnsEmptyWhenIdle) {
  Engine eng;
  Channel<int> ch(eng);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send_now(9);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

TEST(Sync, EventBroadcastsToAllWaiters) {
  Engine eng;
  Event ev(eng);
  std::vector<int> woken;
  ProcessGroup group(eng);
  for (int i = 0; i < 3; ++i) {
    group.spawn([](Event& e, std::vector<int>& out, int id) -> Process {
      co_await e.wait();
      out.push_back(id);
    }(ev, woken, i));
  }
  group.spawn([](Event& e, Engine& en) -> Process {
    co_await Delay{en, Time::millis(1)};
    e.trigger();
  }(ev, eng));
  group.join();
  EXPECT_EQ(woken.size(), 3u);
}

TEST(Sync, WaitOnTriggeredEventDoesNotSuspend) {
  Engine eng;
  Event ev(eng);
  ev.trigger();
  bool done = false;
  ProcessGroup group(eng);
  group.spawn([](Event& e, bool& flag) -> Process {
    co_await e.wait();
    flag = true;
  }(ev, done));
  group.join();
  EXPECT_TRUE(done);
}

TEST(Sync, LatchReleasesAfterAllCountDowns) {
  Engine eng;
  Latch latch(eng, 3);
  Time released = Time::zero();
  ProcessGroup group(eng);
  group.spawn([](Latch& l, Engine& e, Time& at) -> Process {
    co_await l.wait();
    at = e.now();
  }(latch, eng, released));
  for (int i = 1; i <= 3; ++i) {
    group.spawn([](Latch& l, Engine& e, int ms) -> Process {
      co_await Delay{e, Time::millis(ms)};
      l.count_down();
    }(latch, eng, i));
  }
  group.join();
  EXPECT_EQ(released, Time::millis(3));
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Engine eng;
  Semaphore sem(eng, 2);
  int concurrent = 0;
  int peak = 0;
  ProcessGroup group(eng);
  for (int i = 0; i < 6; ++i) {
    group.spawn([](Semaphore& s, Engine& e, int& cur, int& pk) -> Process {
      co_await s.acquire();
      ++cur;
      pk = std::max(pk, cur);
      co_await Delay{e, Time::millis(1)};
      --cur;
      s.release();
    }(sem, eng, concurrent, peak));
  }
  group.join();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Sync, SemaphoreGrantsFifoAcrossDrainAndCompaction) {
  // Waiters arrive in id order, in batches, between interleaved releases;
  // grants must follow arrival order whether the queue drains (and is
  // cleared) or its consumed prefix is compacted away.
  Engine eng;
  Semaphore sem(eng, 0);
  std::vector<int> granted;
  std::vector<std::unique_ptr<Process>> waiters;
  int arrived = 0;
  auto waiter = [](Semaphore& s, std::vector<int>& log, int id) -> Process {
    co_await s.acquire();
    log.push_back(id);
  };
  auto arrive = [&](int n) {
    for (int i = 0; i < n; ++i) {
      waiters.push_back(
          std::make_unique<Process>(waiter(sem, granted, arrived++)));
      waiters.back()->start(eng);
    }
    eng.run();
  };
  auto release = [&](int n) {
    for (int i = 0; i < n; ++i) sem.release();
    eng.run();
  };
  auto expect_state = [&](std::size_t grants, std::size_t waiting,
                          std::size_t available) {
    ASSERT_EQ(granted.size(), grants);
    for (std::size_t i = 0; i < grants; ++i) {
      ASSERT_EQ(granted[i], static_cast<int>(i)) << "grant " << i;
    }
    EXPECT_EQ(sem.waiting(), waiting);
    EXPECT_EQ(sem.available(), available);
  };

  arrive(40);
  expect_state(0, 40, 0);
  release(5);
  expect_state(5, 35, 0);
  arrive(10);
  expect_state(5, 45, 0);
  release(25);  // past half the queue: the consumed prefix is compacted
  expect_state(30, 20, 0);
  for (int round = 0; round < 30; ++round) {  // interleaved trickle
    arrive(3);
    release(round % 2 == 0 ? 1 : 4);
  }
  expect_state(105, 35, 0);
  release(35);  // drains
  expect_state(140, 0, 0);
  release(2);  // nobody waits: the permits bank
  expect_state(140, 0, 2);
  arrive(3);   // two take banked permits at once, the third queues
  expect_state(142, 1, 0);
  release(1);
  expect_state(143, 0, 0);
  for (const auto& w : waiters) EXPECT_TRUE(w->done());
}

TEST(Resource, SerializesTransfersFcfs) {
  Engine eng;
  // 1 MiB/s server: 1 KiB takes ~0.9765625 ms.
  FifoResource res(eng, Bandwidth::mib_per_sec(1.0), "bus");
  std::vector<Time> done;
  ProcessGroup group(eng);
  for (int i = 0; i < 3; ++i) {
    group.spawn([](FifoResource& r, Engine& e, std::vector<Time>& log) -> Process {
      co_await r.transfer(Bytes::kib(1));
      log.push_back(e.now());
    }(res, eng, done));
  }
  group.join();
  ASSERT_EQ(done.size(), 3u);
  const Time unit = transfer_time(Bytes::kib(1), Bandwidth::mib_per_sec(1.0));
  EXPECT_EQ(done[0], unit);
  EXPECT_EQ(done[1], unit * 2);
  EXPECT_EQ(done[2], unit * 3);
}

TEST(Resource, IdleGapsDoNotAccumulate) {
  Engine eng;
  FifoResource res(eng, Bandwidth::mib_per_sec(1.0));
  std::vector<Time> done;
  ProcessGroup group(eng);
  group.spawn([](FifoResource& r, Engine& e, std::vector<Time>& log) -> Process {
    co_await r.transfer(Bytes::kib(1));
    log.push_back(e.now());
    co_await Delay{e, Time::seconds(1)};  // leave the resource idle
    co_await r.transfer(Bytes::kib(1));
    log.push_back(e.now());
  }(res, eng, done));
  group.join();
  const Time unit = transfer_time(Bytes::kib(1), Bandwidth::mib_per_sec(1.0));
  EXPECT_EQ(done[0], unit);
  EXPECT_EQ(done[1], unit + Time::seconds(1) + unit);
}

TEST(Resource, UtilizationReflectsBusyFraction) {
  Engine eng;
  FifoResource res(eng, Bandwidth::mib_per_sec(1.0));
  ProcessGroup group(eng);
  group.spawn([](FifoResource& r, Engine& e) -> Process {
    co_await r.transfer(Bytes::mib(1));  // 1 second busy
    co_await Delay{e, Time::seconds(1)};  // 1 second idle
  }(res, eng));
  group.join();
  EXPECT_NEAR(res.utilization(), 0.5, 1e-9);
  EXPECT_EQ(res.bytes_moved(), Bytes::mib(1));
}

TEST(Resource, OccupyQueuesLikeTransfers) {
  Engine eng;
  FifoResource res(eng, Bandwidth::mib_per_sec(1.0));
  Time done = Time::zero();
  ProcessGroup group(eng);
  group.spawn([](FifoResource& r, Engine& e, Time& at) -> Process {
    co_await r.transfer(Bytes::mib(1));  // busy until t = 1 s
    at = e.now();
  }(res, eng, done));
  group.spawn([](FifoResource& r, Engine& e, Time& at) -> Process {
    co_await r.occupy(Time::millis(100));  // queued behind the transfer
    at = std::max(at, e.now());
  }(res, eng, done));
  group.join();
  EXPECT_EQ(done, Time::seconds(1) + Time::millis(100));
}

}  // namespace
}  // namespace acc::sim
