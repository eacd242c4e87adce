#include "trace/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace acc::trace {

const char* to_string(Category c) {
  switch (c) {
    case Category::kEngine: return "engine";
    case Category::kProcess: return "process";
    case Category::kCpu: return "cpu";
    case Category::kDma: return "dma";
    case Category::kIrq: return "irq";
    case Category::kNet: return "net";
    case Category::kNic: return "nic";
    case Category::kTcp: return "tcp";
    case Category::kInic: return "inic";
    case Category::kApp: return "app";
    case Category::kFault: return "fault";
    case Category::kCollective: return "collective";
    case Category::kRouting: return "routing";
  }
  return "?";
}

void Tracer::enable(std::size_t ring_capacity) {
  enabled_ = true;
  capacity_ = ring_capacity;
  clear();
}

void Tracer::clear() {
  ring_.clear();
  if (capacity_ > 0) ring_.reserve(capacity_);
  next_slot_ = 0;
  emitted_ = 0;
  digest_ = 14695981039346656037ULL;
}

void Tracer::emit(const Record& r) {
  fold(r);
  ++emitted_;
  if (capacity_ == 0) {
    ring_.push_back(r);
  } else if (ring_.size() < capacity_) {
    ring_.push_back(r);
  } else {
    ring_[next_slot_] = r;
    next_slot_ = (next_slot_ + 1) % capacity_;
  }
}

void Tracer::fold(const Record& r) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  auto mix_byte = [this](std::uint8_t b) {
    digest_ ^= b;
    digest_ *= kPrime;
  };
  auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  mix_byte(static_cast<std::uint8_t>(r.kind));
  mix_byte(static_cast<std::uint8_t>(r.category));
  mix_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.node)));
  // Hash name *contents* (plus a terminator so "ab","c" != "a","bc"): the
  // digest must not depend on where the linker placed the literal.
  for (const char* p = r.name; *p != '\0'; ++p) {
    mix_byte(static_cast<std::uint8_t>(*p));
  }
  mix_byte(0);
  mix_u64(static_cast<std::uint64_t>(r.ts.as_nanos()));
  mix_u64(static_cast<std::uint64_t>(r.dur.as_nanos()));
  mix_u64(static_cast<std::uint64_t>(r.value));
}

std::vector<Record> Tracer::records() const {
  if (capacity_ == 0 || ring_.size() < capacity_) return ring_;
  // Wrapped ring: oldest record sits at the write cursor.
  std::vector<Record> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_slot_ + i) % ring_.size()]);
  }
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const Tracer* self = this;
  trace::write_chrome_json(os, std::span(&self, 1), digest_, emitted_);
}

void write_chrome_json(std::ostream& os, std::span<const Tracer* const> lanes,
                       std::uint64_t digest, std::uint64_t records) {
  // Chrome's JSON timestamps are microseconds; print with nanosecond
  // precision via three decimals.  All output is locale-independent
  // (snprintf with "C"-style formats on integer-derived values).
  char buf[256];
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    for (const Record& r : lanes[lane]->records()) {
      if (!first) os << ",";
      first = false;
      const std::int64_t ns = r.ts.as_nanos();
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%zu,\"tid\":%d,"
                    "\"ts\":%" PRId64 ".%03d",
                    r.name, to_string(r.category), lane, r.node + 1,
                    ns / 1000,
                    static_cast<int>(ns % 1000 < 0 ? -(ns % 1000)
                                                   : ns % 1000));
      os << buf;
      switch (r.kind) {
        case RecordKind::kSpan: {
          const std::int64_t dns = r.dur.as_nanos();
          std::snprintf(buf, sizeof buf,
                        ",\"ph\":\"X\",\"dur\":%" PRId64 ".%03d,"
                        "\"args\":{\"value\":%" PRId64 "}}",
                        dns / 1000, static_cast<int>(dns % 1000), r.value);
          break;
        }
        case RecordKind::kInstant:
          std::snprintf(buf, sizeof buf,
                        ",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"value\":%" PRId64
                        "}}",
                        r.value);
          break;
        case RecordKind::kCounter:
          std::snprintf(buf, sizeof buf,
                        ",\"ph\":\"C\",\"args\":{\"value\":%" PRId64 "}}",
                        r.value);
          break;
      }
      os << buf;
    }
  }
  std::snprintf(buf, sizeof buf,
                "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"digest\":\"%016" PRIx64 "\",\"records\":%" PRIu64 "}}",
                digest, records);
  os << buf << "\n";
}

}  // namespace acc::trace
