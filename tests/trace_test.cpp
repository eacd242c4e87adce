// Unit tests for the trace subsystem: record plumbing, digest
// stability/sensitivity, ring-buffer retention, disabled-path cost, the
// counter registry, and Chrome trace_event JSON well-formedness.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/counters.hpp"

namespace acc::trace {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON validator (objects/arrays/strings/numbers/bools/null).
// Enough to prove the exporter's output is syntactically valid JSON
// without pulling in a JSON library.
// ---------------------------------------------------------------------
class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Recording basics
// ---------------------------------------------------------------------

TEST(Tracer, StartsDisabledAndRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.instant(Category::kNet, 0, "x", Time::micros(1));
  t.span(Category::kDma, 1, "y", Time::micros(1), Time::micros(2));
  t.counter(Category::kTcp, 2, "z", Time::micros(3), 7);
  EXPECT_EQ(t.records_emitted(), 0u);
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, DisabledEmitIsAllocationAndDigestFree) {
  Tracer t;
  const std::uint64_t empty_digest = t.digest();
  // A disabled tracer must not grow its ring, advance its digest, or
  // count emissions — the hook sites sit on simulator hot paths.
  for (int i = 0; i < 10000; ++i) {
    t.instant(Category::kEngine, -1, "engine/dispatch", Time::nanos(i), i);
  }
  EXPECT_EQ(t.records_emitted(), 0u);
  EXPECT_EQ(t.digest(), empty_digest);
  EXPECT_EQ(t.records().size(), 0u);
  EXPECT_EQ(t.records().capacity(), 0u);  // never touched the vector
}

TEST(Tracer, RecordsCarryAllFields) {
  Tracer t;
  t.enable();
  t.span(Category::kDma, 3, "dma/transfer", Time::micros(10), Time::micros(4),
         4096);
  auto recs = t.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, RecordKind::kSpan);
  EXPECT_EQ(recs[0].category, Category::kDma);
  EXPECT_EQ(recs[0].node, 3);
  EXPECT_STREQ(recs[0].name, "dma/transfer");
  EXPECT_EQ(recs[0].ts, Time::micros(10));
  EXPECT_EQ(recs[0].dur, Time::micros(4));
  EXPECT_EQ(recs[0].value, 4096);
}

TEST(Tracer, SpansNestAndPreserveEmissionOrder) {
  // An outer span containing two inner spans (the simulator emits spans
  // at booking time, outer-first).  Retained order == emission order and
  // the intervals must actually nest.
  Tracer t;
  t.enable();
  t.span(Category::kInic, 0, "inic/host_dma", Time::micros(0),
         Time::micros(100));
  t.span(Category::kInic, 0, "inic/tx_burst", Time::micros(10),
         Time::micros(20));
  t.span(Category::kInic, 0, "inic/tx_burst", Time::micros(40),
         Time::micros(20));
  auto recs = t.records();
  ASSERT_EQ(recs.size(), 3u);
  const auto& outer = recs[0];
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i].ts, outer.ts);
    EXPECT_LE(recs[i].ts + recs[i].dur, outer.ts + outer.dur);
    if (i > 1) {
      EXPECT_GE(recs[i].ts, recs[i - 1].ts + recs[i - 1].dur);
    }
  }
}

TEST(Tracer, RingRetainsNewestButDigestCoversAll) {
  Tracer unbounded;
  unbounded.enable();
  Tracer ringed;
  ringed.enable(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    unbounded.instant(Category::kNet, 0, "net/inject", Time::micros(i), i);
    ringed.instant(Category::kNet, 0, "net/inject", Time::micros(i), i);
  }
  EXPECT_EQ(unbounded.records().size(), 10u);
  auto retained = ringed.records();
  ASSERT_EQ(retained.size(), 4u);
  // Oldest-first unwrap: values 6,7,8,9 survive.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(retained[i].value, 6 + i);
  EXPECT_EQ(ringed.records_emitted(), 10u);
  // Eviction must not change the stream hash.
  EXPECT_EQ(ringed.digest(), unbounded.digest());
}

TEST(Tracer, ClearResetsDigestAndRecords) {
  Tracer t;
  t.enable();
  const std::uint64_t empty = t.digest();
  t.instant(Category::kApp, 0, "phase", Time::micros(1));
  EXPECT_NE(t.digest(), empty);
  t.clear();
  EXPECT_EQ(t.digest(), empty);
  EXPECT_EQ(t.records_emitted(), 0u);
  EXPECT_TRUE(t.records().empty());
  EXPECT_TRUE(t.enabled());
}

// ---------------------------------------------------------------------
// Digest properties
// ---------------------------------------------------------------------

TEST(Tracer, IdenticalStreamsHashIdentically) {
  auto record = [](Tracer& t) {
    t.enable();
    t.span(Category::kCpu, 0, "cpu/compute", Time::micros(5), Time::micros(9));
    t.instant(Category::kIrq, 1, "irq/fire", Time::micros(14), 3);
    t.counter(Category::kNic, 1, "nic/frames_sent", Time::micros(14), 12);
  };
  Tracer a, b;
  record(a);
  record(b);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(Tracer, DigestSensitiveToEveryField) {
  auto digest_of = [](auto&& fn) {
    Tracer t;
    t.enable();
    fn(t);
    return t.digest();
  };
  const auto base = digest_of([](Tracer& t) {
    t.instant(Category::kNet, 2, "net/inject", Time::micros(10), 64);
  });
  EXPECT_NE(base, digest_of([](Tracer& t) {  // different name contents
    t.instant(Category::kNet, 2, "net/drop", Time::micros(10), 64);
  }));
  EXPECT_NE(base, digest_of([](Tracer& t) {  // different node
    t.instant(Category::kNet, 3, "net/inject", Time::micros(10), 64);
  }));
  EXPECT_NE(base, digest_of([](Tracer& t) {  // different timestamp
    t.instant(Category::kNet, 2, "net/inject", Time::micros(11), 64);
  }));
  EXPECT_NE(base, digest_of([](Tracer& t) {  // different value
    t.instant(Category::kNet, 2, "net/inject", Time::micros(10), 65);
  }));
  EXPECT_NE(base, digest_of([](Tracer& t) {  // different category
    t.instant(Category::kNic, 2, "net/inject", Time::micros(10), 64);
  }));
  EXPECT_NE(base, digest_of([](Tracer& t) {  // different kind
    t.span(Category::kNet, 2, "net/inject", Time::micros(10), Time::zero(),
           64);
  }));
}

TEST(Tracer, DigestHashesNameContentsNotPointer) {
  // The same characters reached through different pointers must fold
  // identically — this is what makes digests stable across ASLR.
  static const char literal_name[] = "nic/tx";
  std::string heap_name = "nic/";
  heap_name += "tx";
  Tracer a, b;
  a.enable();
  b.enable();
  a.instant(Category::kNic, 0, literal_name, Time::micros(1));
  b.instant(Category::kNic, 0, heap_name.c_str(), Time::micros(1));
  EXPECT_EQ(a.digest(), b.digest());
}

// ---------------------------------------------------------------------
// CounterRegistry
// ---------------------------------------------------------------------

TEST(CounterRegistry, CountersAreMonotoneAndTraced) {
  Tracer t;
  t.enable();
  CounterRegistry reg(t);
  Counter& c = reg.get(Category::kNic, 0, "nic/frames_sent");
  std::uint64_t prev = c.value();
  for (int i = 1; i <= 5; ++i) {
    c.add(Time::micros(i), static_cast<std::uint64_t>(i));
    EXPECT_GT(c.value(), prev);  // strictly monotone under positive deltas
    prev = c.value();
  }
  EXPECT_EQ(c.value(), 1u + 2 + 3 + 4 + 5);
  // Each add() emitted one counter record carrying the post-add value.
  auto recs = t.records();
  ASSERT_EQ(recs.size(), 5u);
  std::int64_t last = 0;
  for (const auto& r : recs) {
    EXPECT_EQ(r.kind, RecordKind::kCounter);
    EXPECT_GT(r.value, last);
    last = r.value;
  }
  EXPECT_EQ(last, 15);
}

TEST(CounterRegistry, GetReturnsSameHandleAndSnapshotIsOrdered) {
  Tracer t;
  CounterRegistry reg(t);
  Counter& a = reg.get(Category::kTcp, 1, "tcp/retransmits");
  Counter& b = reg.get(Category::kTcp, 1, "tcp/retransmits");
  EXPECT_EQ(&a, &b);
  reg.get(Category::kCpu, 0, "cpu/interrupts").add(Time::zero(), 2);
  reg.get(Category::kTcp, 0, "tcp/timeouts").add(Time::zero(), 1);
  a.add(Time::zero(), 4);
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Deterministic (category, node, name) order.
  for (std::size_t i = 1; i < snap.size(); ++i) {
    const auto key = [](const CounterSample& s) {
      return std::make_tuple(s.category, s.node, s.name);
    };
    EXPECT_LT(key(snap[i - 1]), key(snap[i]));
  }
  EXPECT_EQ(snap[0].name, "cpu/interrupts");
  EXPECT_EQ(snap[0].value, 2u);
}

TEST(CounterRegistry, ValueAccumulatesEvenWhenTracingDisabled) {
  Tracer t;  // never enabled
  CounterRegistry reg(t);
  Counter& c = reg.get(Category::kNet, -1, "net/frames_forwarded");
  c.add(Time::micros(1), 3);
  c.add(Time::micros(2), 4);
  EXPECT_EQ(c.value(), 7u);       // reports still work untraced
  EXPECT_EQ(t.records_emitted(), 0u);
}

// ---------------------------------------------------------------------
// Chrome JSON exporter
// ---------------------------------------------------------------------

TEST(ChromeJson, OutputIsWellFormedAndCompleteForEveryKind) {
  Tracer t;
  t.enable();
  t.span(Category::kDma, 0, "dma/transfer", Time::micros(2), Time::micros(3),
         4096);
  t.instant(Category::kIrq, 1, "irq/fire", Time::micros(9), 2);
  t.counter(Category::kNic, 1, "nic/frames_received", Time::micros(9), 5);
  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;

  // One event object per record, with the right phase letters.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter
  EXPECT_NE(json.find("\"dma/transfer\""), std::string::npos);
  EXPECT_NE(json.find(to_string(Category::kIrq)), std::string::npos);
  // The digest rides along for O(1) run comparison from the file alone.
  EXPECT_NE(json.find("\"digest\""), std::string::npos);
}

TEST(ChromeJson, EmptyTraceIsStillValidJson) {
  Tracer t;
  std::ostringstream os;
  t.write_chrome_json(os);
  JsonChecker checker(os.str());
  EXPECT_TRUE(checker.valid()) << os.str();
}

}  // namespace
}  // namespace acc::trace
