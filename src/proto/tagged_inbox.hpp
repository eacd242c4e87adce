// Tag-matched receive over a message channel.
//
// Both protocol stacks deliver completed messages into a single inbox
// per node, in arrival order.  Algorithms that run in rounds (pairwise
// exchanges, tree collectives) need the message *for a given tag*, and a
// faster peer's next-round message can arrive first.  TaggedInbox wraps
// the channel with a stash so out-of-round arrivals wait their turn —
// the moral equivalent of MPI tag matching.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>

#include "proto/message.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"

namespace acc::proto {

class TaggedInbox {
 public:
  explicit TaggedInbox(sim::Channel<Message>& channel) : channel_(channel) {}

  /// Receives the next message with the given tag (FIFO among same-tag
  /// messages); other tags are stashed for their own recv calls:
  /// `co_await inbox.recv(tag, out);`
  ///
  /// A message already stashed or queued completes the await without
  /// suspending and without a child coroutine, so draining a deep backlog
  /// nests no frames.  Only an empty channel starts a waiting coroutine.
  auto recv(std::uint64_t tag, Message& out) {
    struct Awaiter {
      TaggedInbox& inbox;
      std::uint64_t tag;
      Message& out;
      sim::Process wait{};
      bool await_ready() { return inbox.take(tag, out); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
        wait = inbox.wait(tag, out);
        return wait.operator co_await().await_suspend(parent);
      }
      void await_resume() { wait.rethrow_if_failed(); }
    };
    return Awaiter{*this, tag, out};
  }

  /// Messages currently stashed (tests).
  std::size_t stashed() const {
    std::size_t n = 0;
    for (const auto& [tag, v] : stash_) n += v.size();
    return n;
  }

 private:
  /// Moves the next `tag` message into `out` from the stash, or from the
  /// channel's queued messages (stashing other tags on the way).  False
  /// when neither holds one.
  bool take(std::uint64_t tag, Message& out) {
    auto it = stash_.find(tag);
    if (it != stash_.end()) {
      out = std::move(it->second.front());
      // Deque, not vector: serving-style workloads stash thousands of
      // same-tag messages, and erasing a vector's front made the drain
      // O(n^2).  pop_front keeps FIFO order (digest-neutral) at O(1).
      it->second.pop_front();
      if (it->second.empty()) stash_.erase(it);
      return true;
    }
    while (auto msg = channel_.try_recv()) {
      if (msg->tag == tag) {
        out = std::move(*msg);
        return true;
      }
      stash_[msg->tag].push_back(std::move(*msg));
    }
    return false;
  }

  /// Suspends on the channel until a `tag` message turns up.
  sim::Process wait(std::uint64_t tag, Message& out) {
    do {
      Message msg = co_await channel_.recv();
      if (msg.tag == tag) {
        out = std::move(msg);
        co_return;
      }
      stash_[msg.tag].push_back(std::move(msg));
    } while (!take(tag, out));
  }

  sim::Channel<Message>& channel_;
  std::map<std::uint64_t, std::deque<Message>> stash_;
};

}  // namespace acc::proto
