// EventHeap: the engine's 4-ary min-heap of (when, seq, slot) keys over a
// callback slab, with move-out pop and O(log n) cancellation.  The core
// property test drives random schedule/pop/cancel interleavings against
// a reference model (a plain sorted multiset over (when, seq) — the
// exact strict-weak order std::priority_queue used in the old engine)
// and requires identical pop order, including the seq tie-breaks the
// simulator's FIFO determinism contract rests on.
#include "sim/event_heap.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/engine.hpp"

namespace acc::sim {
namespace {

using Key = std::pair<std::int64_t, std::uint64_t>;  // (when ns, seq)

TEST(EventHeap, PopsInWhenSeqOrder) {
  EventHeap heap;
  std::vector<int> order;
  // Deliberate time ties: seq must break them FIFO.
  heap.push(Time::micros(5), 0, [&order] { order.push_back(0); });
  heap.push(Time::micros(1), 1, [&order] { order.push_back(1); });
  heap.push(Time::micros(5), 2, [&order] { order.push_back(2); });
  heap.push(Time::micros(1), 3, [&order] { order.push_back(3); });
  while (!heap.empty()) heap.pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2}));
}

TEST(EventHeap, KeyIsTopAndPopMovesTheCallbackOut) {
  EventHeap heap;
  auto owned = std::make_unique<int>(9);
  int seen = 0;
  heap.push(Time::micros(3), 7,
            [p = std::move(owned), &seen]() { seen = *p; });
  const EventHeap::Key k = heap.top();
  EXPECT_EQ(k.when, Time::micros(3));
  EXPECT_EQ(k.seq, 7u);
  InlineCallback fn = heap.pop();
  EXPECT_TRUE(heap.empty());
  fn();
  EXPECT_EQ(seen, 9);
}

TEST(EventHeap, CancelRemovesExactlyThatEvent) {
  EventHeap heap;
  std::vector<int> order;
  heap.push(Time::micros(1), 0, [&order] { order.push_back(0); });
  const auto h = heap.push(Time::micros(2), 1,
                           [&order] { order.push_back(1); });
  heap.push(Time::micros(3), 2, [&order] { order.push_back(2); });
  EXPECT_TRUE(heap.pending(h));
  EXPECT_TRUE(heap.cancel(h));
  EXPECT_FALSE(heap.pending(h));
  EXPECT_FALSE(heap.cancel(h));  // second cancel is a no-op
  while (!heap.empty()) heap.pop()();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventHeap, CancelAfterFireIsExpired) {
  EventHeap heap;
  const auto h = heap.push(Time::micros(1), 0, [] {});
  heap.pop()();
  EXPECT_FALSE(heap.pending(h));
  EXPECT_FALSE(heap.cancel(h));
}

TEST(EventHeap, SlotReuseExpiresStaleHandles) {
  EventHeap heap;
  const auto first = heap.push(Time::micros(1), 0, [] {});
  ASSERT_TRUE(heap.cancel(first));
  // The freed slot is reused by the next push; the old handle must not
  // be able to kill the new occupant.
  const auto second = heap.push(Time::micros(2), 1, [] {});
  EXPECT_EQ(first.slot, second.slot);
  EXPECT_FALSE(heap.cancel(first));
  EXPECT_TRUE(heap.pending(second));
  EXPECT_TRUE(heap.cancel(second));
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, FiredSlotReusedByLaterEventExpiresOldHandle) {
  // The event's seq is its slot's generation.  After `old` fires, `next`
  // takes its slot AND its heap position (the root), so the handle
  // probe lands on a key with the same slot: only the seq tells the two
  // events apart.
  EventHeap heap;
  int fired = 0;
  const auto old = heap.push(Time::micros(1), 0, [&fired] { fired += 1; });
  heap.pop()();
  const auto next = heap.push(Time::micros(1), 1, [&fired] { fired += 10; });
  ASSERT_EQ(old.slot, next.slot);
  EXPECT_EQ(heap.top().slot, old.slot);
  EXPECT_FALSE(heap.pending(old));
  EXPECT_FALSE(heap.cancel(old));
  ASSERT_TRUE(heap.pending(next));
  heap.pop()();
  EXPECT_EQ(fired, 11);
  EXPECT_FALSE(heap.pending(next));
}

TEST(EventHeap, CanceledCallbackIsDestroyedNotLeaked) {
  auto tracked = std::make_shared<int>(0);
  EventHeap heap;
  const auto h = heap.push(Time::micros(1), 0,
                           [keep = tracked] { (void)keep; });
  EXPECT_EQ(tracked.use_count(), 2);
  EXPECT_TRUE(heap.cancel(h));
  EXPECT_EQ(tracked.use_count(), 1);
}

/// A callable too big for InlineCallback's 48-byte buffer, so it is
/// heap-boxed.  Counts destructions of the one live object (moved-from
/// shells do not count).
struct BoxedCallable {
  explicit BoxedCallable(int* destroyed) : destroyed(destroyed) {}
  BoxedCallable(BoxedCallable&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)) {}
  BoxedCallable(const BoxedCallable&) = delete;
  ~BoxedCallable() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() const {}

  int* destroyed;
  std::array<std::uint64_t, 8> pad{};
};
static_assert(!InlineCallback::stores_inline<BoxedCallable>());

TEST(EventHeap, BoxedCallbackDestroyedExactlyOnce) {
  int destroyed = 0;
  {
    EventHeap heap;
    // On cancel.
    const auto h = heap.push(Time::micros(1), 0, BoxedCallable(&destroyed));
    EXPECT_EQ(destroyed, 0);
    ASSERT_TRUE(heap.cancel(h));
    EXPECT_EQ(destroyed, 1);
    // On pop: the popped callback owns the box until it goes away.
    heap.push(Time::micros(2), 1, BoxedCallable(&destroyed));
    {
      InlineCallback fn = heap.pop();
      EXPECT_EQ(destroyed, 1);
      fn();
    }
    EXPECT_EQ(destroyed, 2);
    // On ~EventHeap with events still queued; enough of them that the
    // slab grows (relocating the boxes) before the heap is destroyed.
    for (std::uint64_t seq = 2; seq < 102; ++seq) {
      heap.push(Time::micros(static_cast<double>(seq % 7)), seq,
                BoxedCallable(&destroyed));
    }
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 102);
}

/// On destruction (not as a moved-from shell), cancels `victim` and
/// schedules one more event at (1 µs, seq 100).
struct ReentersOnDestroy {
  ReentersOnDestroy(EventHeap* heap, EventHeap::Handle victim,
                    std::vector<std::uint64_t>* fired)
      : heap(heap), victim(victim), fired(fired) {}
  ReentersOnDestroy(ReentersOnDestroy&& o) noexcept
      : heap(std::exchange(o.heap, nullptr)), victim(o.victim),
        fired(o.fired) {}
  ~ReentersOnDestroy() {
    if (heap == nullptr) return;
    heap->cancel(victim);
    heap->push(Time::micros(1), 100, [f = fired] { f->push_back(100); });
  }
  void operator()() const {}

  EventHeap* heap;
  EventHeap::Handle victim;
  std::vector<std::uint64_t>* fired;
};

TEST(EventHeap, CanceledCallbackDestructorMayReenterTheHeap) {
  // cancel() destroys the callback only after the heap is consistent
  // again, so a dying capture may cancel and schedule other events.
  EventHeap heap;
  std::vector<std::uint64_t> fired;
  std::vector<EventHeap::Handle> handles;
  for (std::uint64_t seq = 0; seq < 16; ++seq) {
    handles.push_back(
        heap.push(Time::micros(static_cast<double>(seq % 5)), seq,
                  [seq, &fired] { fired.push_back(seq); }));
  }
  const auto h = heap.push(Time::micros(2), 50,
                           ReentersOnDestroy(&heap, handles[7], &fired));
  ASSERT_TRUE(heap.cancel(h));
  EXPECT_FALSE(heap.pending(handles[7]));
  while (!heap.empty()) heap.pop()();
  // (when, seq) order of the survivors: seq 7 canceled, seq 100 added.
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 5, 10, 15, 1, 6, 11, 100,
                                               2, 12, 3, 8, 13, 4, 9, 14}));
}

TEST(EventHeap, CancelingTopMovesNextEventTimeAtOnce) {
  // The parallel scheduler's t_min reads next_event_time() and pending()
  // between windows: a canceled top must vanish from both immediately,
  // not linger as a tombstone until a later pop.
  Engine eng;
  eng.schedule(Time::micros(10), [] {});
  auto timer = eng.schedule_cancelable(Time::micros(5), [] {});
  ASSERT_EQ(eng.pending(), 2u);
  ASSERT_EQ(eng.next_event_time(), Time::micros(5));
  ASSERT_TRUE(timer.cancel());
  EXPECT_EQ(eng.pending(), 1u);
  EXPECT_EQ(eng.next_event_time(), Time::micros(10));
}

// ---------------------------------------------------------------------
// Property test against the reference model
// ---------------------------------------------------------------------

/// Reference model: an ordered set over (when, seq) — the same
/// strict-weak order the old std::priority_queue<Scheduled, ..., Later>
/// imposed.  Supports exact-min pop and arbitrary erase (cancel).
class ReferenceModel {
 public:
  void push(Key k) { keys_.insert(k); }
  bool empty() const { return keys_.empty(); }
  Key pop() {
    Key k = *keys_.begin();
    keys_.erase(keys_.begin());
    return k;
  }
  void erase(Key k) { keys_.erase(k); }

 private:
  std::set<Key> keys_;
};

TEST(EventHeapProperty, RandomInterleavingsMatchReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    EventHeap heap;
    ReferenceModel model;
    std::vector<std::pair<Key, EventHeap::Handle>> cancelable;
    std::uint64_t next_seq = 0;
    std::vector<Key> popped_heap, popped_model;

    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t action = rng.below(10);
      if (action < 5) {
        // Schedule (keeping half of the handles).  Few distinct times,
        // so ties are the common case, as in the engine.
        const Time when = Time::micros(static_cast<std::int64_t>(
            rng.below(16)));
        const Key k{when.as_nanos(), next_seq};
        const auto h = heap.push(when, next_seq, [] {});
        if (rng.below(2) == 0) cancelable.emplace_back(k, h);
        model.push(k);
        ++next_seq;
      } else if (action < 8) {
        if (heap.empty()) continue;
        ASSERT_FALSE(model.empty());
        const EventHeap::Key e = heap.top();
        heap.pop();
        popped_heap.emplace_back(e.when.as_nanos(), e.seq);
        popped_model.push_back(model.pop());
        ASSERT_EQ(popped_heap.back(), popped_model.back())
            << "divergence at step " << step << " seed " << seed;
      } else {
        if (cancelable.empty()) continue;
        const std::size_t pick = static_cast<std::size_t>(
            rng.below(cancelable.size()));
        const auto [k, h] = cancelable[pick];
        cancelable.erase(cancelable.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        // The pick may already have been popped; cancel() and the model
        // must agree on whether it was still queued.
        const bool was_pending = heap.pending(h);
        EXPECT_EQ(heap.cancel(h), was_pending);
        if (was_pending) model.erase(k);
      }
    }
    // Drain: remaining contents must agree exactly.
    while (!heap.empty()) {
      ASSERT_FALSE(model.empty());
      const EventHeap::Key e = heap.top();
      heap.pop();
      ASSERT_EQ((Key{e.when.as_nanos(), e.seq}), model.pop());
    }
    EXPECT_TRUE(model.empty());
    for (const auto& [k, h] : cancelable) EXPECT_FALSE(heap.pending(h));
  }
}

TEST(EventHeapProperty, MatchesStdPriorityQueueWithoutCancels) {
  // The exact legacy comparison: same pushes into a std::priority_queue
  // with the old Later comparator must pop identically.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second > b.second;
    }
  };
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    Rng rng(seed);
    EventHeap heap;
    std::priority_queue<Key, std::vector<Key>, Later> legacy;
    for (std::uint64_t seq = 0; seq < 600; ++seq) {
      const Time when =
          Time::micros(static_cast<std::int64_t>(rng.below(32)));
      heap.push(when, seq, [] {});
      legacy.emplace(when.as_nanos(), seq);
    }
    while (!legacy.empty()) {
      ASSERT_FALSE(heap.empty());
      const EventHeap::Key e = heap.top();
      heap.pop();
      EXPECT_EQ((Key{e.when.as_nanos(), e.seq}), legacy.top());
      legacy.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

// ---------------------------------------------------------------------
// Engine-level: reserve() determinism and TimerHandle semantics
// ---------------------------------------------------------------------

#ifndef ACC_TRACE_DISABLED
TEST(EngineReserve, DigestIdenticalWithAndWithoutReserve) {
  // reserve() is pure capacity: the traced digest of a workload must be
  // bit-identical whether or not (and however much) the caller reserved.
  auto digest_of = [](std::size_t reserve_events) {
    Engine eng;
    eng.tracer().enable();
    if (reserve_events > 0) eng.reserve(reserve_events);
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      eng.schedule(Time::micros(static_cast<std::int64_t>(rng.below(64))),
                   [&eng] {
                     eng.schedule(Time::micros(1), [] {});
                   });
    }
    eng.run();
    return eng.tracer().digest();
  };
  const auto unreserved = digest_of(0);
  EXPECT_EQ(digest_of(64), unreserved);
  EXPECT_EQ(digest_of(4096), unreserved);
}
#endif  // ACC_TRACE_DISABLED

TEST(EngineTimer, CancelableTimerNeverFiresOnceCanceled) {
  Engine eng;
  int fired = 0;
  auto h = eng.schedule_cancelable(Time::millis(5), [&fired] { ++fired; });
  eng.schedule(Time::millis(1), [&h] { EXPECT_TRUE(h.cancel()); });
  eng.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.events_canceled(), 1u);
  // The canceled event never dispatched but did consume a seq slot and
  // is gone from the queue.
  EXPECT_EQ(eng.events_executed(), 1u);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(EngineTimer, DefaultAndExpiredHandlesAreNoOps) {
  TimerHandle none;
  EXPECT_FALSE(none.pending());
  EXPECT_FALSE(none.cancel());

  Engine eng;
  auto h = eng.schedule_cancelable(Time::millis(1), [] {});
  EXPECT_TRUE(h.pending());
  eng.run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
  EXPECT_EQ(eng.events_canceled(), 0u);
}

TEST(EngineTimer, CancellationDoesNotDisturbOtherDispatchOrder) {
  // Same schedule with the timer firing vs canceled: the surviving
  // events keep identical (time, FIFO) order and timestamps.
  auto run_once = [](bool cancel) {
    Engine eng;
    std::vector<std::pair<int, std::int64_t>> order;
    for (int i = 0; i < 6; ++i) {
      eng.schedule(Time::micros(10 * (i % 3)), [&order, &eng, i] {
        order.emplace_back(i, eng.now().as_nanos());
      });
    }
    auto h = eng.schedule_cancelable(Time::micros(15),
                                     [&order, &eng] {
                                       order.emplace_back(99, eng.now().as_nanos());
                                     });
    if (cancel) h.cancel();
    eng.run();
    return order;
  };
  auto with_timer = run_once(false);
  auto without_timer = run_once(true);
  // Remove the timer's own entry from the fired variant; the rest must
  // match exactly.
  std::erase_if(with_timer, [](const auto& e) { return e.first == 99; });
  EXPECT_EQ(with_timer, without_timer);
}

}  // namespace
}  // namespace acc::sim
