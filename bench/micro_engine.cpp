// Google-benchmark microbenchmarks of the event core: schedule/dispatch
// throughput of the zero-allocation engine (InlineCallback + 4-ary
// move-out heap + cancelable timers), coroutine resume, timer churn and
// cancellation, the hold model's steady state, plus the parallel
// engine's window barrier.  CI's
// micro-engine job holds the BM_NewEngine_* cases to an absolute
// events/sec floor.
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace acc;

// ---------------------------------------------------------------------
// Schedule/dispatch
// ---------------------------------------------------------------------

/// Capture payload sized like the simulator's real events (TCP retransmit
/// captures {this, &conn, generation}; INIC timers {this, dst,
/// generation}): 24 bytes — past a 16-byte std::function SSO buffer, so
/// only an inline callback keeps it allocation-free.
struct EventPayload {
  void* owner;
  std::uint64_t generation;
  std::uint64_t* sink;
};

void BM_NewEngine_ScheduleDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Engine eng;
    eng.reserve(static_cast<std::size_t>(events));
    Rng rng(7);
    EventPayload payload{&eng, 0, &sink};
    for (int i = 0; i < events; ++i) {
      payload.generation = rng.below(64);
      eng.schedule(Time::nanos(static_cast<std::int64_t>(rng.below(4096))),
                   [payload] { *payload.sink += payload.generation; });
    }
    eng.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_NewEngine_ScheduleDispatch)->Arg(1 << 10)->Arg(1 << 14);

// ---------------------------------------------------------------------
// Coroutine ping-pong
// ---------------------------------------------------------------------

/// Minimal fire-and-forget coroutine: the resume path (event fires ->
/// handle resumes -> next await schedules) without sim::Process's
/// bookkeeping.
struct MicroTask {
  struct promise_type {
    MicroTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

/// co_await delay.  The scheduled resume lambda carries the handle plus
/// the same payload the repo's Delay awaiter effectively carries (owner
/// + deadline) so the capture is representative, not artificially tiny.
struct MicroDelay {
  sim::Engine& eng;
  Time delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    const Time deadline = eng.now() + delay;
    void* owner = &eng;
    eng.schedule(delay, [h, owner, deadline] {
      benchmark::DoNotOptimize(owner);
      benchmark::DoNotOptimize(deadline);
      h.resume();
    });
  }
  void await_resume() const noexcept {}
};

/// One player: every message in the simulator's protocols (TCP burst,
/// INIC go-back-N) arms a retransmission timeout that the ACK almost
/// always beats, so each round arms one and cancels it on wake-up.
MicroTask ping_pong_player(sim::Engine& eng, int rounds, Time period,
                           std::uint64_t& bounces) {
  for (int i = 0; i < rounds; ++i) {
    sim::TimerHandle rto = eng.schedule_cancelable(Time::micros(200), [] {});
    co_await MicroDelay{eng, period};
    rto.cancel();
    ++bounces;
  }
}

void BM_NewEngine_CoroutinePingPong(benchmark::State& state) {
  const int players = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  std::uint64_t total = 0;
  for (auto _ : state) {
    sim::Engine eng;
    // All players awake at the same instants: every round exercises the
    // FIFO tie-break as well as schedule/dispatch/resume.
    for (int p = 0; p < players; ++p) {
      ping_pong_player(eng, rounds, Time::micros(1), total);
    }
    eng.run();
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations() * players * rounds);
}
BENCHMARK(BM_NewEngine_CoroutinePingPong)
    ->Args({2, 1 << 12})
    ->Args({256, 1 << 7});

// ---------------------------------------------------------------------
// Timer churn: defensive timers that almost never fire
// ---------------------------------------------------------------------

/// The retransmit-timeout pattern: arm a timer per message, then the ACK
/// arrives first and cancel() removes the timer in O(log n).
void BM_NewEngine_TimerChurn(benchmark::State& state) {
  const int messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.reserve(static_cast<std::size_t>(messages) * 2);
    std::uint64_t acked = 0;
    for (int i = 0; i < messages; ++i) {
      auto rto = eng.schedule_cancelable(Time::millis(200), [] {});
      // The ACK arrives long before the timeout and disarms it.
      eng.schedule(Time::micros(i + 1), [rto, &acked]() mutable {
        rto.cancel();
        ++acked;
      });
    }
    eng.run();
    benchmark::DoNotOptimize(acked);
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_NewEngine_TimerChurn)->Arg(1 << 12);

// ---------------------------------------------------------------------
// Cancel-heavy: interior removal under load
// ---------------------------------------------------------------------

/// Worst case for eager cancellation: a large queue where most cancelable
/// events are removed from the middle of the heap before firing.
void BM_NewEngine_CancelHeavy(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.reserve(static_cast<std::size_t>(events));
    Rng rng(11);
    std::vector<sim::TimerHandle> handles;
    handles.reserve(static_cast<std::size_t>(events));
    for (int i = 0; i < events; ++i) {
      handles.push_back(eng.schedule_cancelable(
          Time::nanos(static_cast<std::int64_t>(rng.below(1u << 20))),
          [] {}));
    }
    // Cancel ~75% in random order, then drain the survivors.
    for (auto& h : handles) {
      if (rng.below(4) != 0) h.cancel();
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_canceled());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_NewEngine_CancelHeavy)->Arg(1 << 12)->Arg(1 << 16);

// ---------------------------------------------------------------------
// Hold model: the classic PDES steady state
// ---------------------------------------------------------------------

/// Every dispatched event schedules one successor at a random future
/// time, so the queue holds a constant number of live events and each
/// dispatch is one pop plus one push at full heap depth.
struct HoldModel {
  sim::Engine eng;
  Rng rng{13};

  void hold(EventPayload payload) {
    eng.schedule(Time::nanos(1 + static_cast<std::int64_t>(
                                     rng.below(1u << 16))),
                 [payload] {
                   *payload.sink += payload.generation;
                   static_cast<HoldModel*>(payload.owner)->hold(payload);
                 });
  }
};

/// Hold at 16K and 128K live events with the 24-byte EventPayload
/// capture.  The queue is filled untimed; items/sec is events
/// dispatched (each rescheduling itself) per second.
void BM_NewEngine_Hold(benchmark::State& state) {
  const auto live = static_cast<std::uint64_t>(state.range(0));
  constexpr int kBatch = 1024;
  std::uint64_t sink = 0;
  HoldModel model;
  model.eng.reserve(live);
  for (std::uint64_t i = 0; i < live; ++i) {
    model.hold(EventPayload{&model, i, &sink});
  }
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) model.eng.step();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_NewEngine_Hold)->Arg(1 << 14)->Arg(1 << 17);

// ---------------------------------------------------------------------
// Parallel engine: window barriers
// ---------------------------------------------------------------------

/// Barrier overhead in isolation: many near-empty windows (one event per
/// LP per window, negligible per-event work, each posting one cross-LP
/// no-op to the next LP), so the cost measured is almost purely the two
/// barriers + the per-worker drain and minimum per window.  320 LPs is
/// fat_tree(3)/1024's partition: a barrier whose cost grows with LPs²
/// shows there, not at 8.  Setup and teardown are untimed; items/sec is
/// windows per second of real time (the calling thread runs LPs too, so
/// its CPU time is no denominator).  Watch this one when touching the
/// worker-pool synchronization or the drain.
void BM_ParallelEngine_WindowBarrier(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto lps = static_cast<std::size_t>(state.range(1));
  constexpr int kWindows = 256;
  std::uint64_t windows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::ParallelConfig cfg;
    cfg.threads = threads;
    cfg.lookahead = Time::nanos(100);
    auto peng = std::make_unique<sim::ParallelEngine>(lps, cfg);
    sim::ParallelEngine* pp = peng.get();
    for (std::size_t lp = 0; lp < lps; ++lp) {
      const std::size_t next = (lp + 1) % lps;
      for (int w = 0; w < kWindows; ++w) {
        peng->lp(lp).schedule_at(Time::nanos(w * 100), [pp, lp, next] {
          pp->post(lp, next, Time::nanos(100), [] {});
        });
      }
    }
    state.ResumeTiming();
    peng->run();
    state.PauseTiming();
    windows = peng->windows();
    peng.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(windows));
}
BENCHMARK(BM_ParallelEngine_WindowBarrier)
    ->ArgsProduct({{1, 2, 4}, {8, 320}})
    ->ArgNames({"threads", "lps"})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
