// InlineFunction/InlineCallback: move-only small-buffer callable used as
// the engine's event payload.  Pins the properties the event core relies
// on: move-only captures work, the inline-vs-heap threshold is what the
// header claims, moved-from wrappers are empty, and un-invoked callbacks
// still destroy their captures exactly once.
#include "sim/callback.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>

namespace acc::sim {
namespace {

TEST(InlineCallback, DefaultIsEmpty) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, InvokesSmallLambdaInline) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(cb));
  EXPECT_TRUE(cb.is_inline());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, HoldsMoveOnlyCapture) {
  // The whole reason this type exists: std::function rejects this.
  auto owned = std::make_unique<int>(41);
  InlineCallback cb([p = std::move(owned)]() { ++*p; });
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
}

TEST(InlineCallback, MoveTransfersAndEmptiesSource) {
  int hits = 0;
  InlineCallback a([&hits] { ++hits; });
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InlineCallback c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, MoveAssignmentDestroysPreviousTarget) {
  auto counter = std::make_shared<int>(0);
  struct Bump {
    std::shared_ptr<int> n;
    ~Bump() { if (n) ++*n; }
    Bump(std::shared_ptr<int> n) : n(std::move(n)) {}
    Bump(Bump&&) = default;
    void operator()() {}
  };
  InlineCallback a{Bump{counter}};
  a = InlineCallback{[] {}};
  // The first callable (and its moved-from shells) are gone: exactly one
  // live destruction observed.
  EXPECT_EQ(*counter, 1);
  EXPECT_EQ(counter.use_count(), 1);
}

// ---------------------------------------------------------------------
// Inline-vs-heap threshold
// ---------------------------------------------------------------------

TEST(InlineCallback, ThresholdMatchesInlineSize) {
  struct Fits {
    char data[InlineCallback::kInlineSize];
    void operator()() {}
  };
  struct Oversized {
    char data[InlineCallback::kInlineSize + 1];
    void operator()() {}
  };
  static_assert(InlineCallback::stores_inline<Fits>());
  static_assert(!InlineCallback::stores_inline<Oversized>());

  EXPECT_TRUE(InlineCallback{Fits{}}.is_inline());
  EXPECT_FALSE(InlineCallback{Oversized{}}.is_inline());
}

TEST(InlineCallback, ThrowingMoveFallsBackToHeap) {
  // The event heap's slab relocates callbacks when it grows and needs
  // noexcept moves; a callable with a throwing move must be boxed instead.
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() {}
  };
  static_assert(!InlineCallback::stores_inline<ThrowingMove>());
  EXPECT_FALSE(InlineCallback{ThrowingMove{}}.is_inline());
}

TEST(InlineCallback, CoroutineHandleSizedCaptureIsInline) {
  // The dominant event in any run: a lambda capturing one
  // coroutine_handle-sized pointer.  If this ever spills to the heap the
  // whole zero-allocation claim is void.
  void* p = nullptr;
  auto resume_like = [p]() { (void)p; };
  static_assert(InlineCallback::stores_inline<decltype(resume_like)>());
  EXPECT_TRUE(InlineCallback{resume_like}.is_inline());
}

TEST(InlineCallback, HeapFallbackStillInvokesAndMoves) {
  int hits = 0;
  struct Big {
    char pad[96];
    int* hits;
    void operator()() { ++*hits; }
  };
  InlineCallback cb{Big{{}, &hits}};
  EXPECT_FALSE(cb.is_inline());
  InlineCallback moved(std::move(cb));
  moved();
  EXPECT_EQ(hits, 1);
}

// ---------------------------------------------------------------------
// Destruction of un-invoked callbacks
// ---------------------------------------------------------------------

TEST(InlineCallback, UninvokedInlineCallbackDestroysCapture) {
  auto tracked = std::make_shared<int>(7);
  EXPECT_EQ(tracked.use_count(), 1);
  {
    InlineCallback cb([keep = tracked] { (void)keep; });
    EXPECT_TRUE(cb.is_inline());
    EXPECT_EQ(tracked.use_count(), 2);
    // Never invoked.
  }
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(InlineCallback, UninvokedHeapCallbackDestroysCapture) {
  auto tracked = std::make_shared<int>(7);
  struct Big {
    char pad[96];
    std::shared_ptr<int> keep;
    void operator()() {}
  };
  {
    InlineCallback cb{Big{{}, tracked}};
    EXPECT_FALSE(cb.is_inline());
    EXPECT_EQ(tracked.use_count(), 2);
  }
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(InlineCallback, ResetDestroysAndEmpties) {
  auto tracked = std::make_shared<int>(1);
  InlineCallback cb([keep = tracked] { (void)keep; });
  EXPECT_EQ(tracked.use_count(), 2);
  cb.reset();
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_EQ(tracked.use_count(), 1);
  cb.reset();  // idempotent on empty
}

// ---------------------------------------------------------------------
// Non-void() instantiations (InterruptCoalescer's deliver hook)
// ---------------------------------------------------------------------

TEST(InlineFunction, ForwardsArgumentsAndReturnValues) {
  InlineFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);

  std::size_t seen = 0;
  InlineFunction<void(std::size_t)> deliver([&seen](std::size_t n) {
    seen += n;
  });
  deliver(16);
  deliver(4);
  EXPECT_EQ(seen, 20u);
}

}  // namespace
}  // namespace acc::sim
