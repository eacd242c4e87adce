#include "sim/engine.hpp"

#include <cassert>
#include <string>
#include <utility>

namespace acc::sim {

void Engine::schedule_at(Time when, Callback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  queue_.push(when, next_seq_++, std::move(fn));
}

TimerHandle Engine::schedule_cancelable_at(Time when, Callback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  return TimerHandle(this, queue_.push(when, next_seq_++, std::move(fn)));
}

bool Engine::step() {
  if (queue_.empty()) return false;
  // Copy the 24-byte key, then let pop() move the callback out of its
  // slab slot: its only move between schedule and dispatch, and no
  // allocation on the dispatch path.
  const EventHeap::Key ev = queue_.top();
  Callback fn = queue_.pop();
  assert(ev.when >= now_);
  now_ = ev.when;
  ++executed_;
  if (tracer_.enabled()) {
    // Dispatch hook: one instant per event, carrying the schedule-time
    // sequence number, so the digest captures the exact (time, FIFO)
    // order the engine executed.  Pure observation — never perturbs the
    // queue — and gated here so disabled-trace runs skip even the
    // argument setup.
    tracer_.instant(trace::Category::kEngine, -1, "engine/dispatch", now_,
                    static_cast<std::int64_t>(ev.seq));
  }
  fn();
  return true;
}

Time Engine::run_window(Time end) {
  while (!queue_.empty() && queue_.top().when < end) {
    step();
    rethrow_if_failed();
    check_time_budget();
  }
  rethrow_if_failed();
  return now_;
}

void Engine::check_time_budget() {
  if (time_budget_ == Time::zero() || now_ <= time_budget_ || queue_.empty()) {
    return;
  }
  tracer_.instant(trace::Category::kEngine, -1, "engine/watchdog", now_,
                  static_cast<std::int64_t>(queue_.size()));
  throw WatchdogTimeout(
      "Engine watchdog: sim-time budget of " +
      std::to_string(time_budget_.as_millis()) + " ms exceeded at t=" +
      std::to_string(now_.as_millis()) + " ms with " +
      std::to_string(queue_.size()) + " event(s) still pending after " +
      std::to_string(executed_) + " executed — the run is not converging");
}

void Engine::rethrow_if_failed() {
  if (failure_) {
    std::exception_ptr e = std::exchange(failure_, nullptr);
    std::rethrow_exception(e);
  }
}

}  // namespace acc::sim
