// Strong types for simulated time, data size, and bandwidth.
//
// Simulated time is kept as an integer count of nanoseconds so that event
// ordering is exact and reproducible (no floating-point drift when many
// small delays accumulate).  Bandwidth is bytes per second; dividing a
// size by a bandwidth yields a Time, which is the only way the simulator
// ever converts data volume into delay.
#pragma once

#include <cassert>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace acc {

/// A point in (or span of) simulated time, in integer nanoseconds.
class Time {
 public:
  constexpr Time() = default;

  /// Named constructors.  Fractional inputs are rounded to the nearest
  /// nanosecond (ties away from zero, matching std::llround).
  static constexpr Time nanos(std::int64_t ns) { return Time(ns); }
  static Time micros(double us) { return Time(llround_checked(us * 1e3)); }
  static Time millis(double ms) { return Time(llround_checked(ms * 1e6)); }
  static Time seconds(double s) { return Time(llround_checked(s * 1e9)); }
  static constexpr Time zero() { return Time(0); }
  static constexpr Time max() {
    return Time(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t as_nanos() const { return ns_; }
  constexpr double as_micros() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double as_millis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double as_seconds() const { return static_cast<double>(ns_) / 1e9; }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time& operator+=(Time other) {
    ns_ += other.ns_;
    return *this;
  }
  constexpr Time& operator-=(Time other) {
    ns_ -= other.ns_;
    return *this;
  }
  friend constexpr Time operator+(Time a, Time b) { return Time(a.ns_ + b.ns_); }
  friend constexpr Time operator-(Time a, Time b) { return Time(a.ns_ - b.ns_); }
  // A single double overload keeps Time * 3 unambiguous (int converts to
  // double); exact for any integer factor below 2^53 ns, far beyond any
  // simulated horizon here.
  friend Time operator*(Time a, double k) {
    return Time(llround_checked(static_cast<double>(a.ns_) * k));
  }
  friend Time operator*(double k, Time a) { return a * k; }
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }

  friend std::ostream& operator<<(std::ostream& os, Time t);

 private:
  explicit constexpr Time(std::int64_t ns) : ns_(ns) {}

  static std::int64_t llround_checked(double v) {
    assert(std::isfinite(v));
    return std::llround(v);
  }

  std::int64_t ns_ = 0;
};

/// A data size in bytes.  Kept unsigned; subtraction asserts no underflow.
class Bytes {
 public:
  constexpr Bytes() = default;
  explicit constexpr Bytes(std::uint64_t n) : n_(n) {}

  static constexpr Bytes kib(std::uint64_t k) { return Bytes(k * 1024); }
  static constexpr Bytes mib(std::uint64_t m) { return Bytes(m * 1024 * 1024); }
  static constexpr Bytes zero() { return Bytes(0); }

  constexpr std::uint64_t count() const { return n_; }
  constexpr double as_kib() const { return static_cast<double>(n_) / 1024.0; }
  constexpr double as_mib() const {
    return static_cast<double>(n_) / (1024.0 * 1024.0);
  }

  constexpr auto operator<=>(const Bytes&) const = default;

  constexpr Bytes& operator+=(Bytes o) {
    n_ += o.n_;
    return *this;
  }
  constexpr Bytes& operator-=(Bytes o) {
    assert(n_ >= o.n_);
    n_ -= o.n_;
    return *this;
  }
  friend constexpr Bytes operator+(Bytes a, Bytes b) { return Bytes(a.n_ + b.n_); }
  friend constexpr Bytes operator-(Bytes a, Bytes b) {
    assert(a.n_ >= b.n_);
    return Bytes(a.n_ - b.n_);
  }
  friend constexpr Bytes operator*(Bytes a, std::uint64_t k) {
    return Bytes(a.n_ * k);
  }
  friend constexpr Bytes operator*(std::uint64_t k, Bytes a) {
    return Bytes(a.n_ * k);
  }
  friend constexpr std::uint64_t operator/(Bytes a, Bytes b) {
    return a.n_ / b.n_;
  }

  friend std::ostream& operator<<(std::ostream& os, Bytes b);

 private:
  std::uint64_t n_ = 0;
};

/// A transfer rate in bytes per second.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;

  static constexpr Bandwidth bytes_per_sec(double v) { return Bandwidth(v); }
  /// Paper-style "MB/s" constants use binary megabytes (Eq. 6-9 and 13-16
  /// all divide by N * 1024 * 1024).
  static constexpr Bandwidth mib_per_sec(double v) {
    return Bandwidth(v * 1024.0 * 1024.0);
  }
  /// Network line rates are decimal bits per second (1 Gb/s Ethernet).
  static constexpr Bandwidth gbit_per_sec(double v) {
    return Bandwidth(v * 1e9 / 8.0);
  }
  static constexpr Bandwidth mbit_per_sec(double v) {
    return Bandwidth(v * 1e6 / 8.0);
  }

  constexpr double bytes_per_second() const { return bps_; }

  constexpr auto operator<=>(const Bandwidth&) const = default;

  friend constexpr Bandwidth operator*(Bandwidth b, double k) {
    return Bandwidth(b.bps_ * k);
  }
  friend constexpr Bandwidth operator*(double k, Bandwidth b) {
    return Bandwidth(b.bps_ * k);
  }

 private:
  explicit constexpr Bandwidth(double bps) : bps_(bps) {}
  double bps_ = 0.0;
};

/// Time to move `size` at `rate`.  The single point where volume becomes
/// delay; asserts the rate is positive.
inline Time transfer_time(Bytes size, Bandwidth rate) {
  assert(rate.bytes_per_second() > 0.0);
  return Time::seconds(static_cast<double>(size.count()) /
                       rate.bytes_per_second());
}

std::string to_string(Time t);
std::string to_string(Bytes b);

}  // namespace acc
