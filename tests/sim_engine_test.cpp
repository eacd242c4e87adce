// Unit tests for the discrete-event engine: ordering, time advance and
// failure propagation.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace acc::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), Time::zero());
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.events_executed(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(Time::micros(30), [&] { order.push_back(3); });
  eng.schedule(Time::micros(10), [&] { order.push_back(1); });
  eng.schedule(Time::micros(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time::micros(30));
}

TEST(Engine, SameInstantEventsRunFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.schedule(Time::micros(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedSchedulingAdvancesClock) {
  Engine eng;
  Time inner_time = Time::zero();
  eng.schedule(Time::millis(1), [&] {
    eng.schedule(Time::millis(2), [&] { inner_time = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(inner_time, Time::millis(3));
  EXPECT_EQ(eng.events_executed(), 2u);
}

TEST(Engine, ZeroDelayEventRunsAtCurrentTime) {
  Engine eng;
  Time when = Time::max();
  eng.schedule(Time::micros(7), [&] {
    eng.schedule(Time::zero(), [&] { when = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(when, Time::micros(7));
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine eng;
  EXPECT_FALSE(eng.step());
  eng.schedule(Time::micros(1), [] {});
  EXPECT_TRUE(eng.step());
  EXPECT_FALSE(eng.step());
}

TEST(Engine, ReportedFailureRethrownByRun) {
  Engine eng;
  eng.schedule(Time::micros(1), [&] {
    eng.report_failure(std::make_exception_ptr(std::runtime_error("boom")));
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, EventsExecutedCounts) {
  Engine eng;
  for (int i = 0; i < 5; ++i) eng.schedule(Time::micros(i + 1), [] {});
  eng.run();
  EXPECT_EQ(eng.events_executed(), 5u);
}

// ---------------------------------------------------------------------
// Scheduling property test: for ANY submission order, dispatch follows
// (time, submission sequence) — time ascending, FIFO within an instant.
// ---------------------------------------------------------------------

namespace {

/// Schedules `count` events with seeded-random times (deliberately
/// including many ties) and returns (submission index, dispatch time) in
/// dispatch order.
std::vector<std::pair<int, Time>> dispatch_order(Engine& eng, int count,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Time> submit_time(static_cast<std::size_t>(count));
  std::vector<std::pair<int, Time>> dispatched;
  dispatched.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Only 16 distinct instants across hundreds of events: ties are the
    // interesting case, since the heap alone does not provide FIFO.
    const Time when = Time::micros(static_cast<std::int64_t>(rng.below(16)));
    submit_time[static_cast<std::size_t>(i)] = when;
    eng.schedule_at(when, [&dispatched, &eng, i] {
      dispatched.emplace_back(i, eng.now());
    });
  }
  eng.run();
  EXPECT_EQ(dispatched.size(), static_cast<std::size_t>(count));
  for (const auto& [i, at] : dispatched) {
    EXPECT_EQ(at, submit_time[static_cast<std::size_t>(i)]);
  }
  return dispatched;
}

/// The property: dispatch order is the stable sort of submissions by time.
void expect_time_fifo_order(const std::vector<std::pair<int, Time>>& order) {
  for (std::size_t k = 1; k < order.size(); ++k) {
    const auto& [prev_i, prev_t] = order[k - 1];
    const auto& [cur_i, cur_t] = order[k];
    EXPECT_LE(prev_t, cur_t);
    if (prev_t == cur_t) {
      EXPECT_LT(prev_i, cur_i);  // FIFO within a tie
    }
  }
}

}  // namespace

TEST(EngineProperty, RandomScheduleDispatchesInTimeFifoOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Engine eng;
    expect_time_fifo_order(dispatch_order(eng, 400, seed));
  }
}

TEST(EngineProperty, TracingDoesNotChangeDispatchOrder) {
  // The dispatch hook must be a pure observer: enabling tracing (with a
  // small ring, to also exercise eviction) must leave the dispatch
  // sequence and timestamps bit-identical.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Engine plain;
    const auto base = dispatch_order(plain, 300, seed);
    expect_time_fifo_order(base);

    Engine traced;
    traced.tracer().enable(/*ring_capacity=*/32);
    const auto with_trace = dispatch_order(traced, 300, seed);
    EXPECT_EQ(base, with_trace);
    // One engine/dispatch record per executed event.
    EXPECT_EQ(traced.tracer().records_emitted(),
              traced.events_executed());
  }
}

TEST(EngineProperty, SameSeedSameTraceDigest) {
  auto digest_of = [](std::uint64_t seed) {
    Engine eng;
    eng.tracer().enable();
    dispatch_order(eng, 200, seed);
    return eng.tracer().digest();
  };
  EXPECT_EQ(digest_of(5), digest_of(5));
  EXPECT_NE(digest_of(5), digest_of(6));
}

}  // namespace
}  // namespace acc::sim
