// Discrete-event simulation engine.
//
// The engine owns a 4-ary min-heap of (time, sequence) keys over a slab
// of callbacks (src/sim/event_heap.hpp).  Everything that happens in a
// simulated cluster — a DMA burst finishing, a frame arriving at a switch
// port, a CPU finishing a compute phase — is an event.  Processes
// (src/sim/process.hpp) are C++20 coroutines whose suspensions are
// implemented as events, so the engine itself stays a plain callback
// scheduler with deterministic FIFO tie-breaking.
//
// The hot path is allocation-free: callbacks are move-only
// InlineCallbacks (src/sim/callback.hpp) whose captures live inside the
// heap's callback slab, and dispatch moves the callback out of its slot
// instead of copying it.  Defensive timers (retransmission timeouts that
// almost always turn out unnecessary) use schedule_cancelable(), whose
// TimerHandle removes the event from the heap in O(log n) instead of
// letting it fire as a stale no-op.  docs/ENGINE.md covers the design.
#pragma once

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/units.hpp"
#include "sim/callback.hpp"
#include "sim/event_heap.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace acc::sim {

class Engine;

/// Thrown by Engine::run()/run_window() when a watchdog sim-time budget is
/// exceeded: the run made "progress" in simulated time without ever
/// terminating (livelock — e.g. a retransmit timer rearming forever
/// against a dead peer).  The message carries the engine diagnostics;
/// ProcessGroup::join() appends which processes were still blocked.
class WatchdogTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Names one cancelable event.  Default-constructed (or fired, or
/// canceled, or superseded) handles are expired: cancel() on them is a
/// no-op returning false, so callers can cancel unconditionally.
/// Copyable — a handle is just a name; the event itself lives in the
/// engine's heap.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// True while the event is still queued (it has neither fired nor been
  /// canceled).
  inline bool pending() const;

  /// Removes the event from the queue without running it.  Returns false
  /// (and does nothing) when the handle is expired.
  inline bool cancel();

 private:
  friend class Engine;
  TimerHandle(Engine* eng, EventHeap::Handle h) : eng_(eng), h_(h) {}

  Engine* eng_ = nullptr;
  EventHeap::Handle h_;
};

class Engine {
 public:
  using Callback = InlineCallback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` to run `delay` after now.  Events scheduled for the
  /// same instant run in scheduling order (stable FIFO).
  void schedule(Time delay, Callback fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at an absolute simulated time (>= now).
  void schedule_at(Time when, Callback fn);

  /// Like schedule()/schedule_at(), but returns a handle that can remove
  /// the event before it fires.  Cancellation consumes the event without
  /// dispatching it, so a canceled timer never appears in the trace; the
  /// sequence counter advances identically either way, so runs whose
  /// timers all fire (or are never canceled) keep bit-identical digests.
  TimerHandle schedule_cancelable(Time delay, Callback fn) {
    return schedule_cancelable_at(now_ + delay, std::move(fn));
  }
  TimerHandle schedule_cancelable_at(Time when, Callback fn);

  /// Pre-grows the event heap for a run with a known event-count scale.
  /// Pure capacity: dispatch order, digests, and counters are unaffected.
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Runs one event.  Returns false when the queue is empty.
  bool step();

  /// Runs until no events remain: run_window(Time::max()).  Returns the
  /// final simulated time.  Rethrows the first exception that escaped a
  /// root process.
  Time run() { return run_window(Time::max()); }

  /// The one dispatch loop.  Runs every event strictly *before* `end` and
  /// stops, leaving now() at the last executed event (no idle-advance —
  /// the parallel engine's next window, sim/parallel.hpp, must still be
  /// able to schedule at any time >= the window edge).  Events at exactly
  /// `end` belong to the next window, where they merge with cross-LP
  /// mailbox arrivals under the deterministic (time, seq) order.
  Time run_window(Time end);

  /// Watchdog: makes run()/run_window() throw WatchdogTimeout once
  /// simulated time passes `budget` with events still pending — a
  /// no-progress guard for runs that would otherwise spin forever (e.g.
  /// unbounded retransmission against a dead peer).  Time::zero()
  /// disables (the default).
  void set_time_budget(Time budget) { time_budget_ = budget; }
  Time time_budget() const { return time_budget_; }

  /// Number of events executed so far (for tests and budget checks).
  std::uint64_t events_executed() const { return executed_; }

  /// Number of cancelable events removed before firing (telemetry).
  std::uint64_t events_canceled() const { return canceled_; }

  /// Number of events currently pending.
  std::size_t pending() const { return queue_.size(); }

  /// Timestamp of the earliest pending event (the parallel window
  /// scheduler's t_min input).  Valid only when pending() > 0.
  Time next_event_time() const { return queue_.top().when; }

  /// Records an exception that escaped a detached root process; run()
  /// rethrows it.  Used by the process machinery, not by user code.
  void report_failure(std::exception_ptr e) {
    if (!failure_) failure_ = std::move(e);
  }

  /// The engine's trace stream.  Disabled by default; every device model
  /// built on this engine records into it when enabled.
  trace::Tracer& tracer() { return tracer_; }
  const trace::Tracer& tracer() const { return tracer_; }

  /// Monotonic counters shared by the trace stream and post-run reports.
  trace::CounterRegistry& counters() { return counters_; }

 private:
  friend class TimerHandle;

  bool cancel_event(EventHeap::Handle h) {
    if (!queue_.cancel(h)) return false;
    ++canceled_;
    return true;
  }

  void rethrow_if_failed();
  void check_time_budget();

  Time now_ = Time::zero();
  Time time_budget_ = Time::zero();  // zero = no watchdog
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t canceled_ = 0;
  EventHeap queue_;
  std::exception_ptr failure_;
  trace::Tracer tracer_;
  trace::CounterRegistry counters_{tracer_};
};

inline bool TimerHandle::pending() const {
  return eng_ != nullptr && eng_->queue_.pending(h_);
}

inline bool TimerHandle::cancel() {
  return eng_ != nullptr && eng_->cancel_event(h_);
}

}  // namespace acc::sim
