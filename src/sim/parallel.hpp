// Conservative parallel discrete-event execution: sharded logical
// processes (LPs) under a time-window scheduler.
//
// A single Engine dispatches one global event heap on one core; a 100k-
// node fabric point is wall-clock bound by that core no matter how many
// sweep points run in parallel (src/runner/).  ParallelEngine splits one
// *simulation* into LP shards — each LP owns a full sim::Engine (its own
// EventHeap, sequence counter, clock, tracer lane) — and executes them on
// the workers of each run() under the classic Chandy–Misra conservative
// discipline:
//
//   * Lookahead.  Cross-LP interactions carry a minimum latency L (in the
//     fabric: the smallest inter-LP link latency, derived from the
//     topology by net::LpPartition).  An event executing at time t on one
//     LP can therefore only affect another LP at or after t + L.
//
//   * Windows.  Each round, the scheduler finds the globally earliest
//     pending event time t_min and lets every LP execute its local events
//     in the half-open window [t_min, t_min + L) concurrently — no event
//     in that window can receive new cross-LP input, so no LP ever waits
//     on another inside a window.
//
//   * Mailboxes.  A cross-LP event is never pushed into the destination
//     heap mid-window (the destination is running on another thread).
//     post() appends it, tagged with its dst LP, to one of the source
//     LP's outboxes — one per destination worker, written only by the
//     worker executing src.  Each LP stays on one worker for the whole
//     run (LP i on worker i % threads), and after each window every
//     worker drains its own outboxes, walking sources in LP order and
//     scheduling each entry into its destination.  Each destination
//     thus receives its posts in (src LP, post order), and draws their
//     sequence numbers in that order, so simultaneous arrivals
//     tie-break by (time, src LP, post order) — never by which worker
//     finished first.  A barrier costs each worker O(its posts + LPs),
//     never O(LPs²).
//
//   * Workers.  run() starts threads − 1 helper threads beside its
//     caller and joins them before it returns; between windows they meet
//     at a barrier that polls and never sleeps.
//
// Determinism contract (docs/TRACING.md): the window structure depends
// only on event content (t_min is a min over heaps, L is a constant), LP
// execution inside a window is single-threaded on that LP's engine, and
// every cross-thread merge point is canonically ordered.  Same seed ⇒
// same per-LP event streams ⇒ same combined_digest(), for ANY worker
// count — pinned by tests/sim_parallel_test.cpp and
// tests/parallel_scaling_test.cpp, and stress-checked under TSan.
//
// docs/ENGINE.md § "Parallel engine" covers the design and the LP-
// confinement rules a workload must honour.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace acc::sim {

struct ParallelConfig {
  /// Workers executing LP windows, the calling thread included; at least
  /// 1, clamped to the LP count.  1 runs every window inline on the
  /// calling thread (the reference ordering every worker count must
  /// reproduce) and starts no thread.
  std::size_t threads = 1;
  /// Conservative lookahead: the minimum cross-LP delay post() accepts.
  /// Must be positive when more than one LP exists (a zero-lookahead
  /// partition cannot make conservative progress).
  Time lookahead = Time::zero();
};

/// Multi-LP simulation driver.  Owns one Engine per LP and runs them to
/// global completion in conservative time windows.  One LP is the plain
/// serial engine: its whole run is a single unbounded window, so dispatch
/// order and digest equal a standalone Engine's (every SimCluster on a
/// one-LP partition relies on this).
class ParallelEngine {
 public:
  /// Constructs `lps` fresh shard engines, owned by this object.
  ParallelEngine(std::size_t lps, const ParallelConfig& cfg);

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  std::size_t lp_count() const { return shards_.size(); }
  std::size_t threads() const { return threads_; }
  Time lookahead() const { return lookahead_; }

  /// Shard `i`'s engine.  LP-local code schedules through it exactly as
  /// through a standalone Engine; only its owning worker may touch it
  /// while run() is in flight.
  Engine& lp(std::size_t i) { return *shards_.at(i); }
  const Engine& lp(std::size_t i) const { return *shards_.at(i); }

  /// Posts a cross-LP event: `fn` runs on `dst` at the source shard's
  /// now() + delay.  Inside run() it must be called from code executing
  /// on shard `src` (each source's outbox is single-writer, and the
  /// lookahead is measured from src's clock); outside run() the caller
  /// may post for any source.  `delay` must be >= lookahead when
  /// src != dst.  Either violation throws std::logic_error — a
  /// conservative-discipline violation, not a recoverable condition.
  /// Same-LP posts take the direct schedule path with any delay.
  void post(std::size_t src, std::size_t dst, Time delay, Engine::Callback fn);

  /// Runs every shard to global completion (all heaps and mailboxes
  /// empty) on threads() workers: the calling thread and threads() - 1
  /// helper threads that start here and are joined before run()
  /// returns, so no thread outlives it.  A helper that cannot start
  /// makes run() throw its std::system_error before the first window.
  /// Work post()ed before run() counts: mailboxes are drained ahead of
  /// the emptiness check, so a simulation may start entirely from
  /// cross-LP posts.  A post that would land before its
  /// destination's clock (possible only for a post made before run(),
  /// from a source whose clock is behind) makes run() throw
  /// std::logic_error.  Returns the maximum shard time.  When shards
  /// throw, run() stops after that window and rethrows the lowest LP's
  /// exception (deterministic given a deterministic failure); the
  /// window's other failures are dropped.
  /// A sim-time budget (Engine::set_time_budget) set on ANY shard is
  /// propagated to every shard without one and additionally enforced at
  /// each window barrier, so the watchdog fires even when the runaway
  /// chain hops LPs every step and never sits in a local heap.
  Time run();

  /// Events executed, summed over shards.
  std::uint64_t events_executed() const;

  /// Window barriers crossed and cross-LP events carried (telemetry).
  std::uint64_t windows() const { return windows_; }
  std::uint64_t cross_posts() const;

  /// Canonical digest over the per-LP tracer lanes: with one LP it *is*
  /// that engine's tracer digest (so a one-LP run preserves every
  /// existing golden pin bit-for-bit); with several it folds
  /// (lp index, lane digest, lane record count) in LP order.  Worker-
  /// count independent by construction.
  std::uint64_t combined_digest() const;

  /// Per-shard execution telemetry from the last run(): events executed
  /// by the shard and the summed wall-clock nanoseconds its windows took.
  /// bench/perf derives its busy-time and imbalance metrics from it;
  /// busy time excludes the barriers, so it is never an events/sec
  /// denominator.
  struct ShardStats {
    std::uint64_t events = 0;
    std::uint64_t wall_ns = 0;
  };
  std::vector<ShardStats> shard_stats() const;

 private:
  struct Posted {
    Time when;
    std::size_t dst;
    Engine::Callback fn;
  };

  /// Generation-counted barrier over the run's workers.  A waiter polls
  /// until the generation moves — a few paused polls, then a yield per
  /// poll — and never sleeps: a sleeping waiter's wake-up can outlast
  /// the window it waits for.
  class Barrier {
   public:
    explicit Barrier(std::size_t parties) : parties_(parties) {}
    /// Counts `arrivals` parties at once (run() stands in for helpers
    /// that failed to start), then waits for the rest.
    void arrive_and_wait(std::size_t arrivals = 1);

   private:
    const std::size_t parties_;
    std::atomic<std::size_t> arrived_{0};
    std::atomic<std::uint32_t> generation_{0};
  };

  /// One worker's barrier-side state, written once per window.
  struct WorkerSlot {
    Time earliest = Time::max();  // earliest pending event over its LPs
    std::uint64_t drained = 0;    // cross-LP posts it has scheduled
    std::exception_ptr failure;   // a drained post into its LP's past
  };

  /// Executes shard `i`'s window [*, end) and accumulates its stats.
  void run_shard_window(std::size_t i, Time end);
  /// Worker `w`'s part of run(), over LPs w, w + threads_, ...  Returns
  /// the open time of the window the barrier watchdog refused, else
  /// Time::max() (all work done, or a shard failed).
  Time run_worker(std::size_t w);

  std::vector<std::unique_ptr<Engine>> shards_;
  /// outboxes_[src * threads_ + dst % threads_]: appended to only by the
  /// worker executing src, drained only by the worker owning dst.
  std::vector<std::vector<Posted>> outboxes_;
  std::vector<WorkerSlot> slots_;
  std::vector<ShardStats> stats_;
  std::vector<std::exception_ptr> window_failures_;
  Time lookahead_ = Time::zero();
  Time budget_ = Time::zero();
  std::size_t threads_ = 1;
  std::uint64_t windows_ = 0;
  Barrier barrier_;
};

}  // namespace acc::sim
