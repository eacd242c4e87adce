// Typed message channels between simulation processes.
//
// Channel<T> is an unbounded FIFO.  Senders never wait; receivers
// suspend when the channel is empty.  Wakeups are delivered through the
// engine's event queue at zero delay, which keeps resume order
// deterministic and avoids re-entrant resumption inside send_now().
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/engine.hpp"

namespace acc::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Engine& eng) : eng_(eng) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Appends `value` and hands it to the longest-waiting receiver, if any.
  void send_now(T value) {
    items_.push_back(std::move(value));
    wake_one_receiver();
  }

  /// Awaitable receive: `T v = co_await ch.recv();`  FIFO among waiters.
  auto recv() {
    struct Awaiter {
      Channel& ch;
      std::optional<T> value = std::nullopt;
      bool await_ready() {
        if (!ch.items_.empty()) {
          value = ch.take_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ch.receivers_.push_back(RecvWaiting{h, this});
      }
      T await_resume() {
        assert(value.has_value());
        return std::move(*value);
      }
    };
    return Awaiter{*this};
  }

  /// Non-suspending receive; empty optional when nothing is queued.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    return take_front();
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  struct RecvWaiting {
    std::coroutine_handle<> h;
    void* awaiter;  // receiver Awaiter*
  };

  T take_front() {
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  void wake_one_receiver() {
    if (receivers_.empty() || items_.empty()) return;
    RecvWaiting w = receivers_.front();
    receivers_.pop_front();
    // Hand the item to the awaiter immediately (preserving FIFO pairing of
    // items to receivers) but resume through the event queue.
    auto* awaiter = static_cast<decltype(recv())*>(w.awaiter);
    awaiter->value = take_front();
    eng_.schedule(Time::zero(), [h = w.h] { h.resume(); });
  }

  Engine& eng_;
  std::deque<T> items_;
  std::deque<RecvWaiting> receivers_;
};

}  // namespace acc::sim
