// The engine's event queue: a 4-ary min-heap of 24-byte keys over a
// callback slab, with move-out pop and O(log n) cancellation.
//
// Why not std::priority_queue:
//   * top() is const, so popping an event forced a copy of its callback
//     (and the callbacks are now move-only InlineCallbacks anyway);
//   * no reserve(), so a warm run re-grows the backing vector from zero;
//   * no cancellation — defensive timers (TCP RTO, INIC go-back-N) had
//     to fire as stale no-ops, churning the heap long after the workload
//     finished.
//
// Layout.  The heap orders trivially copyable Keys {when, seq, slot}.
// At 24 bytes, a node's four children span 96 bytes (one or two cache
// lines), and a sift level copies 24 bytes of POD.  The callbacks live
// apart, in a slab of 64-byte InlineCallbacks indexed by the key's
// `slot` and recycled through a LIFO free list.  No sift moves a
// callback: push() moves it into its slot and pop() moves it out, once
// each.  A parallel array of 4-byte links holds each slot's heap
// position (or, once free, the next free slot).  Every sift step
// updates the moved key's link; in their own array those writes hit a
// small, mostly cache-resident footprint (512 KB at 128K events) rather
// than one random 64-byte slab line per level.  Why 4-ary: halving the
// tree depth trades a few extra comparisons per level for half the
// dependent cache misses on the sift-down path, which dominates pop.
// Ordering is EXACTLY the strict-weak order on (when, seq) — same
// schedule in, same dispatch order out, bit-identical digests.
//
// Cancellation.  A Handle is {slot, seq}: the event's own sequence
// number, unique per engine, doubles as its slot's generation.  The
// slot's link says where its key sits in the heap, so pending() is one
// probe of that key — same slot, same seq — and a handle whose event
// fired or was canceled fails the probe even after its slot is reused.
// cancel() removes the key in place in O(log n) and destroys the
// callback at once.  Cancellation is eager, not lazy: a defensive timer
// is typically canceled long before it would fire (a 200 µs RTO beaten
// by a 1 µs ACK), so tombstone keys left for pop() to skip would
// outnumber live ones by ~200:1.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/callback.hpp"

namespace acc::sim {

class EventHeap {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One heap node: the event's dispatch order (when, seq) and the slab
  /// slot holding its callback.
  struct Key {
    Time when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  /// Names one queued event.  Default-constructed handles (and handles
  /// whose event fired or was canceled) are expired: cancel() on them is
  /// a no-op returning false.
  struct Handle {
    std::uint32_t slot = kNoSlot;
    std::uint64_t seq = 0;
  };

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  /// Pre-grows keys, slab and links (92 bytes per event) so a run with a
  /// known event-count profile never reallocates mid-flight.  Purely
  /// capacity — never observable in dispatch order.
  void reserve(std::size_t events) {
    keys_.reserve(events);
    slab_.reserve(events);
    link_.reserve(events);
  }

  /// The minimum key by (when, seq).  Valid only when !empty().
  const Key& top() const {
    assert(!keys_.empty());
    return keys_.front();
  }

  /// Removes the minimum event and returns its callback, MOVED out of
  /// its slot (never copied); the slot is recycled.
  InlineCallback pop() {
    assert(!keys_.empty());
    const std::uint32_t slot = keys_.front().slot;
    InlineCallback fn = std::move(slab_[slot]);
    free_slot(slot);
    remove_at(0);
    return fn;
  }

  /// Queues `fn` at (when, seq).  The handle is only needed to cancel.
  Handle push(Time when, std::uint64_t seq, InlineCallback fn) {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = link_[slot];
      slab_[slot] = std::move(fn);
    } else {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(fn));
      link_.push_back(0);
    }
    keys_.emplace_back();
    sift_up(keys_.size() - 1, Key{when, seq, slot});
    return Handle{slot, seq};
  }

  /// True while the handle's event is still queued.  A free slot's link
  /// (the next free slot) never points at a key carrying that slot, so
  /// it fails the probe.
  bool pending(Handle h) const {
    if (h.slot >= slab_.size()) return false;
    const std::size_t i = link_[h.slot];
    return i < keys_.size() && keys_[i].slot == h.slot &&
           keys_[i].seq == h.seq;
  }

  /// Removes the handle's event from the heap without running it; its
  /// callback is destroyed once the heap is consistent again, so the
  /// callback's destructor may itself schedule or cancel.  Returns false
  /// (and does nothing) when the event already fired or was already
  /// canceled.
  bool cancel(Handle h) {
    if (!pending(h)) return false;
    const std::size_t i = link_[h.slot];
    InlineCallback doomed = std::move(slab_[h.slot]);
    free_slot(h.slot);
    remove_at(i);
    return true;
  }

 private:
  static constexpr std::size_t kArity = 4;
  static std::size_t parent(std::size_t i) { return (i - 1) / kArity; }
  static std::size_t first_child(std::size_t i) { return i * kArity + 1; }

  static bool less(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Writes `k` into keys_[i] and keeps its slot's link current.
  void place(std::size_t i, const Key& k) {
    keys_[i] = k;
    link_[k.slot] = static_cast<std::uint32_t>(i);
  }

  void free_slot(std::uint32_t slot) {
    link_[slot] = free_head_;
    free_head_ = slot;
  }

  /// Fills the hole at `i` with the tail key, which may need to move
  /// either direction depending on where the hole was.
  void remove_at(std::size_t i) {
    const Key last = keys_.back();
    keys_.pop_back();
    if (i == keys_.size()) return;
    if (i > 0 && less(last, keys_[parent(i)])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

  /// Sifts `k` from the hole at `i` toward the root by moving greater
  /// ancestors down into it (hole insertion: one copy per level).
  void sift_up(std::size_t i, const Key& k) {
    while (i > 0) {
      const std::size_t p = parent(i);
      if (!less(k, keys_[p])) break;
      place(i, keys_[p]);
      i = p;
    }
    place(i, k);
  }

  void sift_down(std::size_t i, const Key& k) {
    const std::size_t n = keys_.size();
    for (;;) {
      const std::size_t first = first_child(i);
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (less(keys_[c], keys_[best])) best = c;
      }
      if (!less(keys_[best], k)) break;
      place(i, keys_[best]);
      i = best;
    }
    place(i, k);
  }

  std::vector<Key> keys_;
  std::vector<InlineCallback> slab_;  // callbacks, indexed by Key::slot
  /// Per slot: its key's heap position while queued, the next free slot
  /// (or kNoSlot) once free.
  std::vector<std::uint32_t> link_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace acc::sim
