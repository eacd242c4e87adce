// Structured event tracing for the simulator: where did the time go,
// *when*, and *why*.
//
// The paper's argument is a timeline argument — host cycles lost to
// protocol processing, interrupt service, and PCI contention — so the
// simulator records a typed stream of sim-time-stamped events:
//
//   * spans    — an interval of activity on some resource (a DMA burst,
//                an interrupt service, an INIC transmit stage);
//   * instants — a point event (a frame injected, a timeout, a drop);
//   * counters — a monotonic quantity sampled at its update times.
//
// Every record carries (category, node, name, sim-time); names are static
// string literals at the hook sites, so recording is allocation-free per
// record (the ring slot aside) and the stream hashes identically across
// processes, ASLR layouts, and locales.
//
// Two consumers:
//   * write_chrome_json() emits Chrome trace_event JSON for
//     chrome://tracing / Perfetto;
//   * digest() folds every record ever emitted (even ones a bounded ring
//     has since evicted) into a stable 64-bit FNV-1a hash, so two runs
//     can be compared for byte-exact determinism in O(1).
//
// Cost when disabled: every recording call is an inline branch on one
// bool.  The tracer starts disabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace acc::trace {

/// Who emitted a record.  One value per instrumented subsystem; the
/// Chrome exporter maps these to the "cat" field so categories can be
/// toggled in the viewer.
enum class Category : std::uint8_t {
  kEngine = 0,   // event dispatch
  kProcess,      // coroutine spawn/await/finish
  kCpu,          // host CPU time attribution
  kDma,          // PCI DMA bursts
  kIrq,          // interrupt entry/exit
  kNet,          // fabric: inject/forward/drop
  kNic,          // standard NIC datapath
  kTcp,          // TCP segments and timers
  kInic,         // INIC offload phases
  kApp,          // application phases
  kFault,        // injected faults (src/fault/) and recovery milestones
  kCollective,   // on-card collective triggers (arm/fire/forward)
  kRouting,      // link-state health and route re-convergence (src/net/)
};

const char* to_string(Category c);

enum class RecordKind : std::uint8_t { kSpan = 0, kInstant, kCounter };

/// One trace record.  `name` must point at a string with static storage
/// duration (hook sites pass literals); the digest hashes its *contents*,
/// never the pointer.
struct Record {
  RecordKind kind = RecordKind::kInstant;
  Category category = Category::kEngine;
  int node = -1;                 // -1: fabric/global
  const char* name = "";
  Time ts = Time::zero();        // sim time (span start for spans)
  Time dur = Time::zero();       // spans only
  std::int64_t value = 0;        // counter value / instant or span arg
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts recording.  `ring_capacity` bounds how many records are
  /// *retained* for export (0 = unbounded); the digest always covers the
  /// full stream regardless of eviction.
  void enable(std::size_t ring_capacity = 0);

  bool enabled() const { return enabled_; }

  /// Drops retained records and resets the digest (keeps enabled state).
  void clear();

  void span(Category c, int node, const char* name, Time start, Time dur,
            std::int64_t value = 0) {
    if (!enabled()) return;
    emit(Record{RecordKind::kSpan, c, node, name, start, dur, value});
  }

  void instant(Category c, int node, const char* name, Time ts,
               std::int64_t value = 0) {
    if (!enabled()) return;
    emit(Record{RecordKind::kInstant, c, node, name, ts, Time::zero(), value});
  }

  /// Records the *current* value of a monotonic counter (callers pass the
  /// post-increment value; see trace/counters.hpp for managed counters).
  void counter(Category c, int node, const char* name, Time ts,
               std::int64_t value) {
    if (!enabled()) return;
    emit(Record{RecordKind::kCounter, c, node, name, ts, Time::zero(), value});
  }

  /// Stable 64-bit hash over every record emitted since the last clear()
  /// (FNV-1a over the field bytes and name contents).  Identical streams
  /// hash identically in any process.
  std::uint64_t digest() const { return digest_; }

  /// Total records emitted (>= records().size() once a ring wraps).
  std::uint64_t records_emitted() const { return emitted_; }

  /// Retained records in emission order (oldest first).
  std::vector<Record> records() const;

  /// Chrome trace_event JSON (object form, with a digest in otherData).
  /// Load the output in chrome://tracing or https://ui.perfetto.dev.
  /// Equivalent to the free write_chrome_json() over this one lane.
  void write_chrome_json(std::ostream& os) const;

 private:
  void emit(const Record& r);
  void fold(const Record& r);

  bool enabled_ = false;
  std::size_t capacity_ = 0;        // 0 = unbounded
  std::size_t next_slot_ = 0;       // ring write index when bounded
  std::uint64_t emitted_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis
  std::vector<Record> ring_;
};

/// Chrome trace_event JSON of every record the `lanes` retain, lane by
/// lane, each lane as its own "pid" (the lane's index), labelled in
/// otherData with `digest` and `records` (a multi-lane run passes its
/// combined digest and its total emitted records).  One lane reproduces
/// Tracer::write_chrome_json byte for byte.
void write_chrome_json(std::ostream& os, std::span<const Tracer* const> lanes,
                       std::uint64_t digest, std::uint64_t records);

}  // namespace acc::trace
