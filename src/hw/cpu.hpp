// Host CPU model: a serial execution resource with busy/idle accounting.
//
// Application phases occupy the CPU for durations derived from the cost
// model; interrupt service steals additional occupancy.  The CPU is a
// FifoResource, so concurrent demands (application compute vs. the TCP
// stack's per-packet work) serialize the way a single 1 GHz Athlon would.
//
// All time-attribution tallies (compute / protocol / interrupt) are
// trace counters: the post-run report reads the same values the trace
// timeline records, so the two can never disagree.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "hw/memory.hpp"
#include "sim/resource.hpp"
#include "trace/counters.hpp"

namespace acc::hw {

/// Reads its FFT rate (Calibration::host_fft_mflops) and memory hierarchy
/// from the calibration it is given, which must outlive it.
class Cpu {
 public:
  Cpu(sim::Engine& eng, const model::Calibration& cal, int node_id = -1)
      : eng_(eng),
        exec_(eng, Bandwidth::mib_per_sec(1.0), "cpu"),
        memory_(cal),
        node_id_(node_id),
        interrupts_(counter("cpu/interrupts")),
        compute_ns_(counter("cpu/compute_ns")),
        interrupt_ns_(counter("cpu/interrupt_ns")),
        protocol_ns_(counter("cpu/protocol_ns")) {}

  /// Awaitable: occupies the CPU for `duration` of work, queued FCFS
  /// behind anything already running.
  sim::DelayUntil compute(Time duration) {
    compute_ns_.add(eng_.now(), static_cast<std::uint64_t>(duration.as_nanos()));
    const Time done = exec_.enqueue_duration(duration);
    eng_.tracer().span(trace::Category::kCpu, node_id_, "cpu/compute",
                       done - duration, duration);
    return sim::DelayUntil{eng_, done};
  }

  /// Charges interrupt service time (called by the interrupt controller).
  /// Returns the time the service will complete.
  Time charge_interrupt(Time service) {
    interrupts_.add(eng_.now(), 1);
    interrupt_ns_.add(eng_.now(), static_cast<std::uint64_t>(service.as_nanos()));
    const Time done = exec_.enqueue_duration(service);
    eng_.tracer().span(trace::Category::kIrq, node_id_, "cpu/interrupt",
                       done - service, service);
    return done;
  }

  /// Charges per-packet protocol-stack work without suspending the caller
  /// (the NIC model accounts it; the app feels it as CPU contention).
  Time charge_protocol_work(Time work) {
    protocol_ns_.add(eng_.now(), static_cast<std::uint64_t>(work.as_nanos()));
    const Time done = exec_.enqueue_duration(work);
    eng_.tracer().span(trace::Category::kCpu, node_id_, "cpu/protocol",
                       done - work, work);
    return done;
  }

  Time flops_time(double flops) const {
    const double mflops = memory_.calibration().host_fft_mflops;
    return Time::seconds(flops / (mflops * 1e6));
  }

  const MemoryHierarchy& memory() const { return memory_; }
  double utilization() const { return exec_.utilization(); }
  int node_id() const { return node_id_; }
  std::uint64_t interrupts_serviced() const { return interrupts_.value(); }
  Time total_compute_time() const {
    return Time::nanos(static_cast<std::int64_t>(compute_ns_.value()));
  }
  Time total_interrupt_time() const {
    return Time::nanos(static_cast<std::int64_t>(interrupt_ns_.value()));
  }
  Time total_protocol_time() const {
    return Time::nanos(static_cast<std::int64_t>(protocol_ns_.value()));
  }

 private:
  trace::Counter& counter(const char* name) {
    return eng_.counters().get(trace::Category::kCpu, node_id_, name);
  }

  sim::Engine& eng_;
  sim::FifoResource exec_;
  MemoryHierarchy memory_;
  int node_id_;
  trace::Counter& interrupts_;
  trace::Counter& compute_ns_;
  trace::Counter& interrupt_ns_;
  trace::Counter& protocol_ns_;
};

}  // namespace acc::hw
