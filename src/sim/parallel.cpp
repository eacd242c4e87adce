#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace acc::sim {

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ParallelEngine::ParallelEngine(std::size_t lps, const ParallelConfig& cfg)
    : lookahead_(cfg.lookahead) {
  if (lps == 0) {
    throw std::invalid_argument("ParallelEngine: need at least one LP");
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
  threads_ = cfg.threads == 0
                 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                 : cfg.threads;
  // More workers than LPs just idle at every barrier.
  threads_ = std::min(threads_, lps);
  outboxes_.resize(lps);
  stats_.assign(lps, ShardStats{});
  window_failures_.assign(lps, nullptr);
  if (threads_ > 1) start_workers();
}

ParallelEngine::~ParallelEngine() { stop_workers(); }

void ParallelEngine::post(std::size_t src, std::size_t dst, Time delay,
                          Engine::Callback fn) {
  Engine& from = lp(src);
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
  outboxes_[src].push_back(Posted{from.now() + delay, dst, std::move(fn)});
}

Time ParallelEngine::earliest() const {
  Time t = Time::max();
  for (const auto& s : shards_) {
    if (s->pending() > 0) t = std::min(t, s->next_event_time());
  }
  return t;
}

void ParallelEngine::run_shard_window(std::size_t i, Time end) {
  Engine& eng = *shards_[i];
  if (eng.pending() == 0) return;
  if (eng.next_event_time() >= end) return;
  const std::uint64_t before = eng.events_executed();
  const std::uint64_t t0 = wall_now_ns();
  try {
    eng.run_window(end);
  } catch (...) {
    window_failures_[i] = std::current_exception();
  }
  stats_[i].wall_ns += wall_now_ns() - t0;
  stats_[i].events += eng.events_executed() - before;
}

void ParallelEngine::drain_mailboxes() {
  // Canonical merge (dst, src, post order): outboxes gathered in source
  // order, then stable-sorted by dst.  Destination sequence numbers are
  // assigned in this sweep, so simultaneous cross-LP arrivals tie-break
  // by (time, src LP, post order) on every run, at every worker count.
  drain_order_.clear();
  for (std::vector<Posted>& out : outboxes_) {
    for (Posted& p : out) drain_order_.push_back(&p);
  }
  std::stable_sort(
      drain_order_.begin(), drain_order_.end(),
      [](const Posted* a, const Posted* b) { return a->dst < b->dst; });
  for (Posted* p : drain_order_) {
    ++cross_posts_;
    shards_[p->dst]->schedule_at(p->when, std::move(p->fn));
  }
  for (std::vector<Posted>& out : outboxes_) out.clear();
}

void ParallelEngine::execute_window(Time end) {
  if (threads_ <= 1) {
    // Reference ordering: every shard inline, ascending LP.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      run_shard_window(i, end);
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    window_end_ = end;
    workers_done_ = 0;
    next_shard_.store(0, std::memory_order_relaxed);
    ++generation_;
    work_cv_.notify_all();
    // Wait for every WORKER (not merely every shard) to pass its claim
    // loop: a straggler that has not yet observed the exhausted index
    // counter must never see it reset for the next window, or it would
    // claim a fresh shard against the stale window edge.
    done_cv_.wait(lock, [this] { return workers_done_ == workers_.size(); });
  }
}

void ParallelEngine::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Time end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      end = window_end_;
    }
    // Claim shards by atomic index: which worker runs a shard is
    // wall-clock dependent, but the shard's own execution is
    // single-threaded and deterministic either way.
    for (;;) {
      const std::size_t i = next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (i >= shards_.size()) break;
      run_shard_window(i, end);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
      if (workers_done_ == workers_.size()) done_cv_.notify_all();
    }
  }
}

void ParallelEngine::start_workers() {
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ParallelEngine::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

Time ParallelEngine::run() {
  // Watchdog seeding: a budget set on any shard (callers usually reach
  // only LP 0, through SimCluster::engine()) arms every shard that has
  // none of its own, so a runaway loop trips no matter which LP hosts it.
  Time budget = Time::zero();
  for (const auto& s : shards_) budget = std::max(budget, s->time_budget());
  if (budget != Time::zero()) {
    for (auto& s : shards_) {
      if (s->time_budget() == Time::zero()) s->set_time_budget(budget);
    }
  }
  for (;;) {
    // Mailboxes count as pending work: post() before the first window (or
    // an event chain living entirely in cross-LP flight) leaves every heap
    // empty while entries wait here, so drain BEFORE the emptiness check
    // or run() would return with work silently dropped.
    drain_mailboxes();
    const Time t_min = earliest();
    if (t_min == Time::max()) break;  // all heaps empty, mailboxes drained
    if (budget != Time::zero() && t_min > budget) {
      // Barrier-side watchdog: an event chain that hops LPs every step
      // spends its life in mailboxes, so the per-step check inside
      // run_window() (which requires a non-empty local heap) can never
      // fire.  The window open time is the authoritative global clock —
      // judge the budget here.
      std::uint64_t pending = 0;
      for (const auto& s : shards_) pending += s->pending();
      throw WatchdogTimeout(
          "ParallelEngine watchdog: sim-time budget of " +
          std::to_string(budget.as_millis()) +
          " ms exceeded — the next window would open at t=" +
          std::to_string(t_min.as_millis()) + " ms with " +
          std::to_string(pending) + " event(s) still pending across " +
          std::to_string(shards_.size()) +
          " LP(s) — the run is not converging");
    }
    // One LP: no cross-LP input can ever arrive, so the whole
    // remaining simulation is one safe window.  Multi-LP: the half-open
    // conservative window [t_min, t_min + lookahead).
    const Time end =
        shards_.size() == 1 ? Time::max() : t_min + lookahead_;
    execute_window(end);
    ++windows_;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (window_failures_[i]) {
        std::exception_ptr e = std::exchange(window_failures_[i], nullptr);
        std::rethrow_exception(e);
      }
    }
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

std::vector<ParallelEngine::ShardStats> ParallelEngine::shard_stats() const {
  return stats_;
}

}  // namespace acc::sim
