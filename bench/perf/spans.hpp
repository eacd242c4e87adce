// Benchmark-side spans: host wall-clock intervals the benchmark records
// around its own calls into the library's public API (cluster
// construction, each driver or run() call, report collection, probes).
// They are kept in memory and written once, at exit, as Chrome trace JSON
// that Perfetto loads; a layer's self time is its span's duration minus
// the part its child spans cover.
//
// Spans are recorded only on the traced rep; untraced reps pass a null
// recorder and pay nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perf {

class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span, -1 for a root
    int run = -1;     // which cluster run (or probe) the span belongs to
  };

  /// Opens a span nested in the innermost open one; returns its index.
  int open(std::string name, int run) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, run});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_json(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << escape(s.name)
         << "\",\"cat\":\"bench\"," << buf << "\"args\":{\"id\":" << i
         << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
    }
    os << "\n]}\n";
  }

  struct Layer {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Per span name: how many, total duration, and self time (duration
  /// minus the children's durations; children run sequentially on the
  /// benchmark's one thread, so their sum is the covered part).
  std::map<std::string, Layer> layers() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Layer& l = out[s.name];
      ++l.count;
      l.total_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      l.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
    }
    return out;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Scoped span; a null recorder makes it a no-op.
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name, int run = -1) : spans_(spans) {
    if (spans_) id_ = spans_->open(std::move(name), run);
  }
  ~SpanScope() {
    if (spans_) spans_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int id_ = -1;
};

}  // namespace perf
