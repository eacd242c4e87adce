// Move-only callable wrapper with small-buffer storage — the engine's
// event payload.
//
// Nearly every event the engine dispatches is a coroutine resume: a
// lambda capturing one std::coroutine_handle (8 bytes).  std::function
// can hold that inline too, but it buys that with copyability: every
// callable must be copy-constructible, and the old Engine::step() paid a
// full copy of the wrapper just to move the event out of a const
// priority_queue top.  InlineFunction drops copyability instead:
//
//   * captures up to kInlineSize bytes live in the wrapper itself —
//     construct, move, invoke and destroy never touch the heap;
//   * larger (or over-aligned, or throwing-move) captures fall back to a
//     single heap allocation, after which a move is a pointer swap;
//   * moves are O(1) pointer/byte shuffles with no virtual dispatch —
//     one static table of three function pointers per callable type.
//
// kInlineSize is 48 so the common engine lambdas ([this, frame] with a
// small frame, [this, &c, generation], [h]) stay inline while
// sizeof(InlineCallback) stays at one cache line: the event heap keeps
// its callbacks in a slab of them, apart from the (when, seq, slot) keys
// it sifts.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace acc::sim {

template <class Signature>
class InlineFunction;

template <class R, class... Args>
class InlineFunction<R(Args...)> {
 public:
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when a callable of type `F` is stored in the inline buffer
  /// (public so tests can pin the threshold).  A throwing move
  /// constructor forces the heap: the event heap's slab relocates
  /// callbacks when it grows and must be able to do so noexcept.
  template <class F>
  static constexpr bool stores_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFunction() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (stores_inline<F>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the held callable lives in the inline buffer (tests).
  bool is_inline() const { return ops_ != nullptr && !ops_->heap; }

  R operator()(Args... args) {
    assert(ops_ && "invoking an empty InlineFunction");
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  void reset() {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  /// Per-callable-type operations.  `relocate` move-constructs into `dst`
  /// from `src` and destroys the source — the one primitive a moving
  /// container needs — and is noexcept by construction (heap mode moves a
  /// pointer; inline mode requires a nothrow move).
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* p, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(p)))(
            std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); },
      /*heap=*/false};

  template <class D>
  static constexpr Ops kHeapOps = {
      [](void* p, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(p)))(
            std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        D** s = std::launder(reinterpret_cast<D**>(src));
        ::new (dst) D*(*s);
      },
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<D**>(p)); },
      /*heap=*/true};

  void take(InlineFunction& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_) ops_->relocate(other.storage_, storage_);
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// The engine's event payload: a void() InlineFunction.
using InlineCallback = InlineFunction<void()>;

}  // namespace acc::sim
