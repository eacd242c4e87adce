// Bandwidth-shared resources.
//
// FifoResource models a serial server (a bus, a link transmitter, a DMA
// channel): requests are served one at a time in arrival order, each
// occupying the server for size/bandwidth.  Because service is FCFS and
// non-preemptive, the finish time of a request can be computed at submit
// time, which makes modelling bulk transfers O(1) events per request
// regardless of size.  Utilization is tracked for reports.
#pragma once

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace acc::sim {

class FifoResource {
 public:
  FifoResource(Engine& eng, Bandwidth rate, std::string name = {})
      : eng_(eng), rate_(rate), name_(std::move(name)) {}

  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  /// Awaitable bulk transfer: suspends the caller until `size` has moved
  /// through this resource, including any queueing behind earlier
  /// requests.  Example:  co_await bus.transfer(Bytes::kib(64));
  DelayUntil transfer(Bytes size) { return DelayUntil{eng_, enqueue(size)}; }

  /// Awaitable busy occupancy for a fixed duration (e.g. per-transaction
  /// overhead on a bus), queued FCFS like a transfer.
  DelayUntil occupy(Time duration) {
    return DelayUntil{eng_, enqueue_duration(duration)};
  }

  /// Books a transfer and returns its completion time without suspending.
  /// Used by device models that pipeline several resources and only wait
  /// on the last one.
  Time enqueue(Bytes size) {
    bytes_moved_ += size;
    return enqueue_duration(transfer_time(size, rate_));
  }

  Time enqueue_duration(Time duration) {
    const Time start = std::max(eng_.now(), available_at_);
    available_at_ = start + duration;
    busy_time_ += duration;
    return available_at_;
  }

  /// Books a transfer that cannot begin before `earliest` (head-of-line
  /// data dependency: a FIFO stage stalls until its input is available).
  /// Later requests queue behind the stall, as in a real in-order stage.
  Time enqueue_after(Time earliest, Bytes size) {
    if (earliest > available_at_) available_at_ = earliest;
    return enqueue(size);
  }

  /// Time at which the resource next becomes free.
  Time available_at() const { return std::max(available_at_, eng_.now()); }

  /// Fraction of [0, now] the resource spent busy.
  double utilization() const {
    const Time now = eng_.now();
    if (now == Time::zero()) return 0.0;
    const Time busy = std::min(busy_time_, now);
    return busy / now;
  }

  /// Changes the service rate (fault injection: a renegotiated or
  /// degraded link) and re-times the *unserved backlog* at the new rate,
  /// so work queued behind the rate change drains at the speed
  /// the link actually has now.  Completion times callers already
  /// captured from enqueue() are not recalled — those events still fire
  /// when originally booked; only requests submitted after this call
  /// observe the stretched (or compressed) backlog.
  void set_rate_rescaled(Bandwidth rate) {
    assert(rate.bytes_per_second() > 0.0);
    const Time now = eng_.now();
    if (available_at_ > now) {
      const double ratio =
          rate_.bytes_per_second() / rate.bytes_per_second();
      available_at_ = now + (available_at_ - now) * ratio;
    }
    rate_ = rate;
  }

  Bandwidth rate() const { return rate_; }
  Bytes bytes_moved() const { return bytes_moved_; }
  const std::string& name() const { return name_; }
  Engine& engine() const { return eng_; }

 private:
  Engine& eng_;
  Bandwidth rate_;
  std::string name_;
  Time available_at_ = Time::zero();
  Time busy_time_ = Time::zero();
  Bytes bytes_moved_ = Bytes::zero();
};

}  // namespace acc::sim
