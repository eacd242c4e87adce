// Interrupt mitigation (coalescing) model.
//
// Section 4.1: "high speed network interfaces typically use some form of
// interrupt mitigation — based on a time-out or number of messages
// received ... it interacts poorly with TCP slow-start for short
// messages."  The coalescer batches frame-arrival notifications: an
// interrupt fires when either Calibration::interrupt_coalesce_frames are
// pending or Calibration::interrupt_coalesce_timeout has elapsed since the
// first pending frame.  Each interrupt charges Calibration::interrupt_cost
// of service time on the host CPU, and the batched frames are only
// delivered to the host when that service completes — which is precisely
// the added latency that stalls TCP's ACK clock on short transfers.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/units.hpp"
#include "hw/cpu.hpp"
#include "model/calibration.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"

namespace acc::hw {

class InterruptCoalescer {
 public:
  /// `deliver` runs when an interrupt's CPU service completes, with the
  /// number of frames the interrupt covered.
  /// `deliver` is an InlineFunction, so the typical capture (a NIC
  /// pointer or two) rides in the coalescer itself — one fewer
  /// allocation per IRQ wiring and none at fire time.  The calibration
  /// must outlive the coalescer.
  InterruptCoalescer(sim::Engine& eng, Cpu& cpu,
                     const model::Calibration& cal,
                     sim::InlineFunction<void(std::size_t)> deliver)
      : eng_(eng), cpu_(cpu), cal_(cal), deliver_(std::move(deliver)) {}

  /// Signals one received frame.  May fire an interrupt immediately
  /// (count threshold) or arm the timeout.
  void notify_frame() { notify_frames(1); }

  /// Signals `n` received frames at once (a burst).
  void notify_frames(std::size_t n) {
    if (n == 0) return;
    if (pending_ == 0) {
      arm_timeout();
    }
    pending_ += n;
    const std::size_t max_frames = cal_.interrupt_coalesce_frames;
    while (pending_ >= max_frames) {
      fire_batch(max_frames);
    }
  }

  std::uint64_t interrupts_fired() const { return fired_; }
  std::size_t pending() const { return pending_; }

 private:
  void arm_timeout() {
    const std::uint64_t generation = ++timeout_generation_;
    eng_.schedule(cal_.interrupt_coalesce_timeout, [this, generation] {
      // A count-triggered interrupt in the meantime invalidates the timer.
      if (generation == timeout_generation_ && pending_ > 0) {
        fire();
      }
    });
  }

  void fire() { fire_batch(pending_); }

  void fire_batch(std::size_t batch) {
    assert(batch <= pending_);
    pending_ -= batch;
    ++timeout_generation_;  // cancel any armed timeout
    if (pending_ > 0) arm_timeout();  // leftovers start a fresh window
    ++fired_;
    eng_.tracer().instant(trace::Category::kIrq, cpu_.node_id(), "irq/fire",
                          eng_.now(), static_cast<std::int64_t>(batch));
    const Time done = cpu_.charge_interrupt(cal_.interrupt_cost);
    eng_.schedule_at(done, [this, batch] { deliver_(batch); });
  }

  sim::Engine& eng_;
  Cpu& cpu_;
  const model::Calibration& cal_;
  sim::InlineFunction<void(std::size_t)> deliver_;
  std::size_t pending_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t timeout_generation_ = 0;
};

}  // namespace acc::hw
