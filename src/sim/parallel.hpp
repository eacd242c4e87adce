// Conservative parallel discrete-event execution: sharded logical
// processes (LPs) under a time-window scheduler.
//
// A single Engine dispatches one global event heap on one core; a 100k-
// node fabric point is wall-clock bound by that core no matter how many
// sweep points run in parallel (src/runner/).  ParallelEngine splits one
// *simulation* into LP shards — each LP owns a full sim::Engine (its own
// EventHeap, sequence counter, clock, tracer lane) — and executes them on
// a worker pool under the classic Chandy–Misra conservative discipline:
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
//     post() appends it, tagged with its dst LP, to the source LP's
//     outbox — written only by the worker executing src.  The barrier
//     gathers the outboxes in source order, stable-sorts the entries by
//     dst and schedules them in that fixed (dst LP, src LP, post order)
//     sweep.  Destination sequence numbers are assigned during that
//     deterministic drain, so simultaneous arrivals tie-break by
//     (time, src LP, post order) — never by which worker finished first.
//     A barrier costs O(posts · log posts + LPs), never O(LPs²).
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
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace acc::sim {

struct ParallelConfig {
  /// Worker threads executing LP windows.  1 runs every window inline on
  /// the calling thread (the reference ordering the pool must reproduce);
  /// 0 picks std::thread::hardware_concurrency().
  std::size_t threads = 1;
  /// Conservative lookahead: the minimum cross-LP delay post() accepts.
  /// Must be positive when more than one LP exists (a zero-lookahead
  /// partition cannot make conservative progress).
  Time lookahead = Time::zero();
};

/// Multi-LP simulation driver.  Owns (or adopts) one Engine per LP and
/// runs them to global completion in conservative time windows.
class ParallelEngine {
 public:
  /// Constructs `lps` fresh shard engines, owned by this object.
  ParallelEngine(std::size_t lps, const ParallelConfig& cfg);

  /// Adopts existing shard engines (not owned; must outlive this object).
  /// A single adopted shard is the facade SimCluster uses: the cluster's
  /// own engine becomes LP 0 and runs through the same window machinery.
  ParallelEngine(std::vector<Engine*> shards, const ParallelConfig& cfg);

  ~ParallelEngine();

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
  /// now() + delay.  Must be called from code executing on shard `src`
  /// (each source's outbox is single-writer).  `delay` must be >=
  /// lookahead when src != dst (throws std::logic_error otherwise — a
  /// conservative-discipline violation, not a recoverable condition);
  /// same-LP posts take the direct schedule path with any delay.
  void post(std::size_t src, std::size_t dst, Time delay, Engine::Callback fn);

  /// Runs every shard to global completion (all heaps and mailboxes
  /// empty).  Work post()ed before run() counts: mailboxes are drained
  /// ahead of the emptiness check, so a simulation may start entirely
  /// from cross-LP posts.  Returns the maximum shard time.  The first
  /// exception that escapes any window is rethrown after the barrier,
  /// lowest LP first (deterministic given a deterministic failure).
  /// A sim-time budget (Engine::set_time_budget) set on ANY shard is
  /// propagated to every shard without one and additionally enforced at
  /// each window barrier, so the watchdog fires even when the runaway
  /// chain hops LPs every step and never sits in a local heap.
  Time run();

  /// Events executed, summed over shards.
  std::uint64_t events_executed() const;

  /// Window barriers crossed and cross-LP events carried (telemetry).
  std::uint64_t windows() const { return windows_; }
  std::uint64_t cross_posts() const { return cross_posts_; }

  /// Canonical digest over the per-LP tracer lanes: with one LP it *is*
  /// that engine's tracer digest (so a single-shard facade preserves
  /// every existing golden pin bit-for-bit); with several it folds
  /// (lp index, lane digest, lane record count) in LP order.  Worker-
  /// count independent by construction.
  std::uint64_t combined_digest() const;

  /// Per-shard execution telemetry from the last run(): events executed
  /// by the shard and the summed wall-clock nanoseconds its windows took.
  /// Feeds runner::RunMetrics::shards as telemetry: busy time excludes
  /// the barriers, so it is never an events/sec denominator.
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

  void init(const ParallelConfig& cfg);
  /// Earliest pending event across all shard heaps; Time::max() if idle.
  Time earliest() const;
  /// Executes shard `i`'s window [*, end) and accumulates its stats.
  void run_shard_window(std::size_t i, Time end);
  /// Drains every outbox into the destination heaps in the canonical
  /// (dst, src, post order) sweep.  Barrier-side only.
  void drain_mailboxes();
  void start_workers();
  void stop_workers();
  void worker_loop();
  /// Runs one window over every shard on the pool (or inline when
  /// threads_ == 1) and waits for completion.
  void execute_window(Time end);

  std::vector<std::unique_ptr<Engine>> owned_;
  std::vector<Engine*> shards_;
  /// One outbox per source LP: only the worker executing src appends,
  /// only the barrier drains.
  std::vector<std::vector<Posted>> outboxes_;
  /// Barrier scratch: the drained entries in canonical order.
  std::vector<Posted*> drain_order_;
  std::vector<ShardStats> stats_;
  std::vector<std::exception_ptr> window_failures_;
  Time lookahead_ = Time::zero();
  std::size_t threads_ = 1;
  std::uint64_t windows_ = 0;
  std::uint64_t cross_posts_ = 0;

  // Worker pool: generation-counted window barrier.  The coordinator
  // publishes (window_end_, generation_); workers claim shard indices
  // from next_shard_ and count themselves done on workers_done_.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Time window_end_ = Time::zero();
  std::uint64_t generation_ = 0;
  std::size_t workers_done_ = 0;
  std::atomic<std::size_t> next_shard_{0};
  bool shutdown_ = false;
};

}  // namespace acc::sim
