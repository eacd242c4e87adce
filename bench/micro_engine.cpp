// Google-benchmark microbenchmarks of the event core: schedule/dispatch
// throughput of the zero-allocation engine (InlineCallback + 4-ary
// move-out heap + cancelable timers) against a faithful replica of the
// pre-change engine (std::function callbacks in a std::priority_queue
// whose top() is copied out before pop).
//
// The replica reproduces the old hot path exactly — same (when, seq)
// comparator, same copy-out dispatch — so the New-vs-Legacy pairs below
// measure only the data-structure change, not workload drift.  The
// ping-pong pair is the acceptance comparison: the new engine must
// sustain at least 2x the legacy events/sec (compare items_per_second).
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/lp_workload.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace acc;

// ---------------------------------------------------------------------
// Legacy engine replica (pre-change hot path)
// ---------------------------------------------------------------------

/// The event core as it was before the rewrite: type-erased callbacks in
/// std::function, a std::priority_queue ordered by (when, seq), and a
/// dispatch that copies top() out because top() is const.  No trace or
/// watchdog plumbing — both engines run those branches disabled, so the
/// comparison isolates callback storage and queue mechanics.
class LegacyEngine {
 public:
  using Callback = std::function<void()>;

  Time now() const { return now_; }

  void schedule(Time delay, Callback fn) {
    queue_.push(Scheduled{now_ + delay, next_seq_++, std::move(fn)});
  }

  bool step() {
    if (queue_.empty()) return false;
    Scheduled ev = queue_.top();  // copy-out: top() is const
    queue_.pop();
    now_ = ev.when;
    ++executed_;
    ev.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  std::uint64_t events_executed() const { return executed_; }

 private:
  struct Scheduled {
    Time when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Scheduled, std::vector<Scheduled>, Later> queue_;
};

// ---------------------------------------------------------------------
// Workloads (templated over the engine so both run identical code)
// ---------------------------------------------------------------------

/// Capture payload sized like the simulator's real events (TCP retransmit
/// captures {this, &conn, generation}; INIC timers {this, dst,
/// generation}): 24 bytes.  Under the old 16-byte std::function SSO this
/// allocates on every schedule *and* on every top() copy; InlineCallback
/// keeps it in the heap entry.
struct EventPayload {
  void* owner;
  std::uint64_t generation;
  std::uint64_t* sink;
};

template <class EngineT>
void schedule_dispatch_round(EngineT& eng, Rng& rng, int events,
                             std::uint64_t& sink) {
  EventPayload payload{&eng, 0, &sink};
  for (int i = 0; i < events; ++i) {
    payload.generation = rng.below(64);
    eng.schedule(Time::nanos(static_cast<std::int64_t>(rng.below(4096))),
                 [payload] { *payload.sink += payload.generation; });
  }
  eng.run();
}

void BM_NewEngine_ScheduleDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Engine eng;
    eng.reserve(static_cast<std::size_t>(events));
    Rng rng(7);
    schedule_dispatch_round(eng, rng, events, sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_NewEngine_ScheduleDispatch)->Arg(1 << 10)->Arg(1 << 14);

void BM_LegacyEngine_ScheduleDispatch(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    LegacyEngine eng;
    Rng rng(7);
    schedule_dispatch_round(eng, rng, events, sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_LegacyEngine_ScheduleDispatch)->Arg(1 << 10)->Arg(1 << 14);

// ---------------------------------------------------------------------
// Coroutine ping-pong (the acceptance comparison)
// ---------------------------------------------------------------------

/// Minimal fire-and-forget coroutine, engine-agnostic.  The simulator's
/// own Process type is welded to sim::Engine, so the legacy comparison
/// uses this micro task instead; the resume path (event fires -> handle
/// resumes -> next await schedules) is the same shape either way.
struct MicroTask {
  struct promise_type {
    MicroTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

/// co_await delay on either engine.  The scheduled resume lambda carries
/// the handle plus the same payload the repo's Delay awaiter effectively
/// carries (owner + deadline) so the capture is representative, not
/// artificially tiny.
template <class EngineT>
struct MicroDelay {
  EngineT& eng;
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

/// Per-message defensive timer, pre- and post-change idiom.  Every
/// message in the simulator's protocols (TCP burst, INIC go-back-N) arms
/// a retransmission timeout that the ACK almost always beats.  The old
/// engine left the stale timer queued until it fired as a
/// generation-checked no-op; the new engine cancels it out of the heap.
/// The ping-pong below arms one per round on both engines, so the pair
/// measures the pre/post-change engine on the same protocol behaviour.
struct NewEngineRto {
  sim::TimerHandle arm(sim::Engine& eng) {
    return eng.schedule_cancelable(Time::micros(200), [] {});
  }
  void ack(sim::Engine&, sim::TimerHandle h) { h.cancel(); }
};

struct LegacyEngineRto {
  std::uint64_t generation = 0;

  std::uint64_t arm(LegacyEngine& eng) {
    const std::uint64_t armed = generation;
    auto* self = this;
    eng.schedule(Time::micros(200), [self, armed] {
      // Stale-fire no-op: by the time this dispatches the ACK has long
      // since bumped the generation.
      benchmark::DoNotOptimize(self->generation == armed);
    });
    return armed;
  }
  void ack(LegacyEngine&, std::uint64_t) { ++generation; }
};

template <class EngineT, class RtoT>
MicroTask ping_pong_player(EngineT& eng, RtoT& rto, int rounds, Time period,
                           std::uint64_t& bounces) {
  for (int i = 0; i < rounds; ++i) {
    auto armed = rto.arm(eng);
    co_await MicroDelay<EngineT>{eng, period};
    rto.ack(eng, armed);
    ++bounces;
  }
}

template <class EngineT, class RtoT>
std::uint64_t run_ping_pong(EngineT& eng, std::vector<RtoT>& rtos,
                            int rounds) {
  std::uint64_t bounces = 0;
  // All players awake at the same instants: every round exercises the
  // FIFO tie-break as well as schedule/dispatch/resume.  On the legacy
  // engine the armed RTOs (200 us out, 1 us rounds) pile up as pending
  // dead weight exactly as they did in the pre-change TCP/INIC models.
  for (auto& rto : rtos) {
    ping_pong_player(eng, rto, rounds, Time::micros(1), bounces);
  }
  eng.run();
  return bounces;
}

void BM_NewEngine_CoroutinePingPong(benchmark::State& state) {
  const int players = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  std::uint64_t total = 0;
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<NewEngineRto> rtos(static_cast<std::size_t>(players));
    total += run_ping_pong(eng, rtos, rounds);
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations() * players * rounds);
}
BENCHMARK(BM_NewEngine_CoroutinePingPong)
    ->Args({2, 1 << 12})
    ->Args({256, 1 << 7});

void BM_LegacyEngine_CoroutinePingPong(benchmark::State& state) {
  const int players = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  std::uint64_t total = 0;
  for (auto _ : state) {
    LegacyEngine eng;
    std::vector<LegacyEngineRto> rtos(static_cast<std::size_t>(players));
    total += run_ping_pong(eng, rtos, rounds);
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations() * players * rounds);
}
BENCHMARK(BM_LegacyEngine_CoroutinePingPong)
    ->Args({2, 1 << 12})
    ->Args({256, 1 << 7});

// ---------------------------------------------------------------------
// Timer churn: defensive timers that almost never fire
// ---------------------------------------------------------------------

/// The retransmit-timeout pattern: arm a timer per message, then the ACK
/// arrives first.  New engine: cancel() removes the event in O(log n).
/// Legacy engine: the stale timer stays queued and fires as a
/// generation-checked no-op — the pre-change TCP/INIC behaviour.
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

void BM_LegacyEngine_TimerChurn(benchmark::State& state) {
  const int messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LegacyEngine eng;
    std::uint64_t acked = 0;
    auto generation = std::make_shared<std::vector<std::uint64_t>>(
        static_cast<std::size_t>(messages), 0);
    for (int i = 0; i < messages; ++i) {
      const std::uint64_t armed = (*generation)[static_cast<std::size_t>(i)];
      eng.schedule(Time::millis(200), [generation, i, armed] {
        // Stale-fire no-op: the generation moved on when the ACK landed.
        benchmark::DoNotOptimize(
            (*generation)[static_cast<std::size_t>(i)] == armed);
      });
      eng.schedule(Time::micros(i + 1), [generation, i, &acked] {
        ++(*generation)[static_cast<std::size_t>(i)];
        ++acked;
      });
    }
    eng.run();
    benchmark::DoNotOptimize(acked);
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_LegacyEngine_TimerChurn)->Arg(1 << 12);

// ---------------------------------------------------------------------
// Cancel-heavy: interior removal under load
// ---------------------------------------------------------------------

/// Worst case for the slot table: a large queue where most cancelable
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
// Parallel engine: LP-partitioned fabric traffic across worker counts
// ---------------------------------------------------------------------

/// Window-scheduler scaling on the real topology-derived workload
/// (net/lp_workload.hpp): the same seeded traffic at 1/2/4 workers, so
/// the reported items_per_second trajectory is the per-thread scaling
/// curve the engine_scaling suite gates on.  Every run's digest is
/// thread-count independent — this benchmark folds it into a sink, not
/// an assertion (tests/parallel_scaling_test.cpp owns that check).
void BM_ParallelEngine_LpFabric(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  net::LpWorkloadConfig cfg;
  cfg.topology = net::TopologyConfig::fat_tree(3);
  cfg.hosts = 128;  // k = 8: 80 switch LPs
  cfg.frames_per_host = 16;
  cfg.switch_work = 512;
  std::uint64_t digest_sink = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const net::LpWorkloadResult r = net::run_lp_workload(cfg, threads);
    digest_sink ^= r.digest;
    events = r.events;
  }
  benchmark::DoNotOptimize(digest_sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ParallelEngine_LpFabric)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Barrier overhead in isolation: many near-empty windows (one event per
/// LP per window, negligible per-event work, each posting one cross-LP
/// no-op to the next LP), so the cost measured is almost purely wakeup +
/// claim + drain per window.  320 LPs is fat_tree(3)/1024's partition:
/// a barrier whose cost grows with LPs² shows there, not at 8.  Setup
/// and teardown are untimed; items/sec is windows per second.  Watch
/// this one when touching the worker-pool synchronization or the drain.
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
    ->ArgNames({"threads", "lps"});

}  // namespace

BENCHMARK_MAIN();
