// Synchronization primitives for simulation processes: one-shot events,
// countdown latches, and counting semaphores.  All wakeups go through the
// engine's event queue at zero delay for deterministic ordering.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <vector>

#include "sim/engine.hpp"

namespace acc::sim {

/// One-shot broadcast event.  Waiters suspend until trigger(); waiting on
/// an already-triggered event does not suspend.
class Event {
 public:
  explicit Event(Engine& eng) : eng_(eng) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool triggered() const { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    for (auto h : waiters_) {
      eng_.schedule(Time::zero(), [h] { h.resume(); });
    }
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const { return ev.triggered_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& eng_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Countdown latch: wait() suspends until count_down() has been called
/// `initial` times.  The standard join primitive for fan-out/fan-in.
class Latch {
 public:
  Latch(Engine& eng, std::size_t initial) : event_(eng), remaining_(initial) {
    if (remaining_ == 0) event_.trigger();
  }

  void count_down() {
    assert(remaining_ > 0);
    if (--remaining_ == 0) event_.trigger();
  }

  std::size_t remaining() const { return remaining_; }
  auto wait() { return event_.wait(); }

 private:
  Event event_;
  std::size_t remaining_;
};

/// Counting semaphore with FIFO grant order.
///
/// Waiters queue in a vector read from `head_`, not a deque: a semaphore
/// nobody has waited on owns no heap block (libstdc++'s deque allocates
/// ~600 B even when empty), and a cluster holds one per TCP connection
/// and one per INIC credit peer.  The queue is cleared, keeping its
/// capacity, when it drains, and its consumed prefix is compacted away
/// once it passes half the vector, so a semaphore that never drains
/// stays bounded.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::size_t initial) : eng_(eng), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() {
        if (sem.count_ > 0 && sem.waiting() == 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (waiting() == 0) {
      ++count_;
      return;
    }
    auto h = waiters_[head_++];
    if (head_ == waiters_.size()) {
      waiters_.clear();
      head_ = 0;
    } else if (2 * head_ > waiters_.size()) {
      waiters_.erase(waiters_.begin(),
                     waiters_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    // The released permit passes directly to the first waiter.
    eng_.schedule(Time::zero(), [h] { h.resume(); });
  }

  std::size_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size() - head_; }

 private:
  Engine& eng_;
  std::size_t count_;
  std::vector<std::coroutine_handle<>> waiters_;  // FIFO from head_
  std::size_t head_ = 0;
};

}  // namespace acc::sim
