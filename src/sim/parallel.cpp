#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace acc::sim {

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The engine and LP the calling thread is executing a window of, or
// {nullptr, 0} outside every ParallelEngine::run().  post() checks it.
struct Executing {
  const ParallelEngine* engine = nullptr;
  std::size_t lp = 0;
};
thread_local Executing tl_executing;

// Paused polls a barrier waiter makes before it yields its core on each
// further poll.  It never sleeps: a wake-up can outlast a whole window,
// and once one outlasts a spin every later window pays for one.
constexpr int kRelaxPolls = 64;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();  // yields the core to a hyper-thread sibling
#endif
}

}  // namespace

ParallelEngine::ParallelEngine(std::size_t lps, const ParallelConfig& cfg)
    : lookahead_(cfg.lookahead),
      // More workers than LPs would only idle.
      threads_(std::min(lps, cfg.threads)),
      barrier_(threads_) {
  if (lps == 0) {
    throw std::invalid_argument("ParallelEngine: need at least one LP");
  }
  if (cfg.threads == 0) {
    throw std::invalid_argument("ParallelEngine: need at least one thread");
  }
  if (lps > 1 && lookahead_ <= Time::zero()) {
    throw std::invalid_argument(
        "ParallelEngine: a multi-LP partition needs a positive lookahead "
        "(the minimum cross-LP latency) to make conservative progress");
  }
  shards_.reserve(lps);
  for (std::size_t i = 0; i < lps; ++i) {
    shards_.push_back(std::make_unique<Engine>());
  }
  outboxes_.resize(lps * threads_);
  slots_.resize(threads_);
  stats_.assign(lps, ShardStats{});
  window_failures_.assign(lps, nullptr);
}

void ParallelEngine::Barrier::arrive_and_wait(std::size_t arrivals) {
  if (parties_ == 1) return;
  const std::uint32_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(arrivals, std::memory_order_acq_rel) + arrivals ==
      parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(gen + 1, std::memory_order_release);
    return;
  }
  for (int polls = 0; generation_.load(std::memory_order_acquire) == gen;
       ++polls) {
    polls < kRelaxPolls ? cpu_relax() : std::this_thread::yield();
  }
}

void ParallelEngine::post(std::size_t src, std::size_t dst, Time delay,
                          Engine::Callback fn) {
  Engine& from = lp(src);
  if (tl_executing.engine == this && tl_executing.lp != src) {
    throw std::logic_error(
        "ParallelEngine::post: LP " + std::to_string(tl_executing.lp) +
        " posted as LP " + std::to_string(src) +
        " — inside run() only the executing LP may post");
  }
  if (src == dst) {
    // LP-local: the ordinary schedule path, any delay.
    from.schedule(delay, std::move(fn));
    return;
  }
  if (delay < lookahead_) {
    throw std::logic_error(
        "ParallelEngine::post: cross-LP delay " +
        std::to_string(delay.as_nanos()) + " ns is below the lookahead " +
        std::to_string(lookahead_.as_nanos()) +
        " ns — the conservative window discipline would be violated");
  }
  outboxes_[src * threads_ + dst % threads_].push_back(
      Posted{from.now() + delay, dst, std::move(fn)});
}

void ParallelEngine::run_shard_window(std::size_t i, Time end) {
  Engine& eng = *shards_[i];
  if (eng.pending() == 0) return;
  if (eng.next_event_time() >= end) return;
  const std::uint64_t before = eng.events_executed();
  const std::uint64_t t0 = wall_now_ns();
  const Executing outer = std::exchange(tl_executing, Executing{this, i});
  try {
    eng.run_window(end);
  } catch (...) {
    window_failures_[i] = std::current_exception();
  }
  tl_executing = outer;
  stats_[i].wall_ns += wall_now_ns() - t0;
  stats_[i].events += eng.events_executed() - before;
}

Time ParallelEngine::run_worker(std::size_t w) {
  const std::size_t lps = shards_.size();
  WorkerSlot& slot = slots_[w];
  for (;;) {
    // Drain this worker's outboxes in (src LP, post order).  Mailboxes
    // count as pending work — post() before the first window (or an
    // event chain living entirely in cross-LP flight) leaves every heap
    // empty while entries wait here — so drain BEFORE the emptiness
    // check or run() would return with work silently dropped.
    std::uint64_t drained = 0;
    for (std::size_t src = 0; src < lps; ++src) {
      std::vector<Posted>& box = outboxes_[src * threads_ + w];
      for (Posted& p : box) {
        Engine& to = *shards_[p.dst];
        if (p.when < to.now()) {
          if (!slot.failure) {
            slot.failure = std::make_exception_ptr(std::logic_error(
                "ParallelEngine: a post from LP " + std::to_string(src) +
                " lands at t=" + std::to_string(p.when.as_nanos()) +
                " ns, before LP " + std::to_string(p.dst) + "'s clock (" +
                std::to_string(to.now().as_nanos()) + " ns)"));
          }
          continue;
        }
        to.schedule_at(p.when, std::move(p.fn));
      }
      drained += box.size();
      box.clear();
    }
    Time earliest = Time::max();
    for (std::size_t i = w; i < lps; i += threads_) {
      const Engine& s = *shards_[i];
      if (s.pending() > 0) earliest = std::min(earliest, s.next_event_time());
    }
    slot.drained += drained;
    slot.earliest = earliest;
    barrier_.arrive_and_wait();
    Time t_min = Time::max();
    bool drain_failed = false;
    for (const WorkerSlot& other : slots_) {
      t_min = std::min(t_min, other.earliest);
      drain_failed = drain_failed || other.failure;
    }
    // Heaps and mailboxes empty, or a post was refused: the run is over.
    if (drain_failed || t_min == Time::max()) return Time::max();
    // Barrier-side watchdog: every worker sees the same t_min, so all
    // stop together and run() reports it.
    if (budget_ != Time::zero() && t_min > budget_) return t_min;
    // One LP: no cross-LP input can ever arrive, so the whole
    // remaining simulation is one safe window.  Multi-LP: the half-open
    // conservative window [t_min, t_min + lookahead).
    const Time end = lps == 1 ? Time::max() : t_min + lookahead_;
    for (std::size_t i = w; i < lps; i += threads_) run_shard_window(i, end);
    barrier_.arrive_and_wait();
    if (w == 0) ++windows_;
    for (const std::exception_ptr& e : window_failures_) {
      if (e) return Time::max();
    }
  }
}

Time ParallelEngine::run() {
  // Watchdog seeding: a budget set on any shard (callers usually reach
  // only LP 0, through SimCluster::engine()) arms every shard that has
  // none of its own, so a runaway loop trips no matter which LP hosts it.
  budget_ = Time::zero();
  for (const auto& s : shards_) budget_ = std::max(budget_, s->time_budget());
  if (budget_ != Time::zero()) {
    for (auto& s : shards_) {
      if (s->time_budget() == Time::zero()) s->set_time_budget(budget_);
    }
  }
  // Helpers run workers 1..threads_-1 for this run only; starting and
  // joining them orders their work against the caller's, before and after.
  std::vector<std::thread> helpers;
  helpers.reserve(threads_ - 1);
  try {
    for (std::size_t w = 1; w < threads_; ++w) {
      helpers.emplace_back([this, w] { run_worker(w); });
    }
  } catch (...) {
    // A helper did not start.  Those that did wait at their first
    // barrier: arrive there for worker 0 and every missing worker with a
    // failed drain, so they all end the run before its first window.
    slots_[0].failure = std::current_exception();
    barrier_.arrive_and_wait(threads_ - helpers.size());
  }
  const Time refused =
      helpers.size() + 1 == threads_ ? run_worker(0) : Time::max();
  for (std::thread& t : helpers) t.join();
  // A drain failure (lowest worker first) ends the run before its window
  // opens.  Otherwise the lowest LP's exception stands for the failed
  // window; the rest of that window's failures are dropped with it.
  std::exception_ptr failure;
  for (WorkerSlot& s : slots_) {
    if (!failure) failure = s.failure;
    s.failure = nullptr;
  }
  for (std::exception_ptr& e : window_failures_) {
    if (!failure) failure = e;
    e = nullptr;
  }
  if (failure) std::rethrow_exception(failure);
  if (refused != Time::max()) {
    // Barrier-side watchdog: an event chain that hops LPs every step
    // spends its life in mailboxes, so the per-step check inside
    // run_window() (which requires a non-empty local heap) can never
    // fire.  The window open time is the authoritative global clock —
    // judge the budget here.
    std::uint64_t pending = 0;
    for (const auto& s : shards_) pending += s->pending();
    throw WatchdogTimeout(
        "ParallelEngine watchdog: sim-time budget of " +
        std::to_string(budget_.as_millis()) +
        " ms exceeded — the next window would open at t=" +
        std::to_string(refused.as_millis()) + " ms with " +
        std::to_string(pending) + " event(s) still pending across " +
        std::to_string(shards_.size()) +
        " LP(s) — the run is not converging");
  }
  Time t = Time::zero();
  for (const auto& s : shards_) t = std::max(t, s->now());
  return t;
}

std::uint64_t ParallelEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_executed();
  return total;
}

std::uint64_t ParallelEngine::combined_digest() const {
  if (shards_.size() == 1) return shards_[0]->tracer().digest();
  // FNV-1a fold over (lp, lane digest, lane record count) in LP order:
  // lane contents are deterministic per LP, the fold order is fixed, so
  // the combination is worker-count independent.
  std::uint64_t h = 14695981039346656037ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  auto mix_u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= kPrime;
    }
  };
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    mix_u64(static_cast<std::uint64_t>(i));
    mix_u64(shards_[i]->tracer().digest());
    mix_u64(shards_[i]->tracer().records_emitted());
  }
  return h;
}

std::uint64_t ParallelEngine::cross_posts() const {
  std::uint64_t total = 0;
  for (const WorkerSlot& s : slots_) total += s.drained;
  return total;
}

std::vector<ParallelEngine::ShardStats> ParallelEngine::shard_stats() const {
  return stats_;
}

}  // namespace acc::sim
