#include "runner/bench_json.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string_view>

namespace acc::runner {

namespace {

/// JSON string escaping for the characters our suite/point/param names
/// can legally contain (quotes, backslashes, control characters).
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  // JSON has no inf/nan literals; a bare snprintf would emit them and
  // corrupt the document for strict parsers.  null is the standard
  // "unrepresentable" marker and keeps the field present.
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

void write_point(std::ostream& os, const RunRecord& r,
                 const std::string& indent) {
  os << indent << "\"" << escaped(r.name) << "\": {\n";
  os << indent << "  \"params\": {";
  for (std::size_t i = 0; i < r.params.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << escaped(r.params[i].first) << "\": \""
       << escaped(r.params[i].second) << "\"";
  }
  os << "},\n";
  if (!r.ok) {
    os << indent << "  \"error\": \"" << escaped(r.error) << "\",\n";
    os << indent << "  \"wall_ms\": " << number(r.wall_ms) << ",\n";
    os << indent << "  \"wall_ns\": " << r.wall_ns << "\n";
    os << indent << "}";
    return;
  }
  os << indent << "  \"sim_ms\": " << number(r.metrics.sim_time.as_millis())
     << ",\n";
  if (r.metrics.speedup != 0.0) {
    os << indent << "  \"speedup\": " << number(r.metrics.speedup) << ",\n";
  }
  os << indent << "  \"digest\": \"" << digest_hex(r.metrics.digest)
     << "\",\n";
  os << indent << "  \"wall_ms\": " << number(r.wall_ms) << ",\n";
  os << indent << "  \"wall_ns\": " << r.wall_ns << ",\n";
  os << indent << "  \"events\": " << r.metrics.events << ",\n";
  os << indent << "  \"events_per_sec\": " << number(r.events_per_sec());
  // Schema v4: parallel-engine scaling fields, emitted only for points
  // that ran on the window scheduler so v3-era points are byte-stable.
  if (r.metrics.threads > 1) {
    os << ",\n" << indent << "  \"threads\": " << r.metrics.threads;
  }
  if (r.metrics.scaling_efficiency != 0.0) {
    os << ",\n"
       << indent
       << "  \"scaling_efficiency\": " << number(r.metrics.scaling_efficiency);
  }
  if (r.metrics.latency.present) {
    const LatencySummary& l = r.metrics.latency;
    os << ",\n" << indent << "  \"latency\": {";
    os << "\"count\": " << l.count;
    os << ", \"p50_ns\": " << l.p50_ns;
    os << ", \"p99_ns\": " << l.p99_ns;
    os << ", \"p999_ns\": " << l.p999_ns;
    os << ", \"mean_ns\": " << l.mean_ns;
    os << ", \"max_ns\": " << l.max_ns;
    os << ", \"goodput_bytes_per_sec\": " << l.goodput_bytes_per_sec;
    os << "}";
  }
  if (!r.metrics.counters.empty()) {
    os << ",\n" << indent << "  \"counters\": {";
    for (std::size_t i = 0; i < r.metrics.counters.size(); ++i) {
      if (i) os << ", ";
      os << "\"" << escaped(r.metrics.counters[i].first)
         << "\": " << r.metrics.counters[i].second;
    }
    os << "}";
  }
  os << "\n" << indent << "}";
}

/// The golden table's per-point fields, in check order, rendered exactly
/// as the table stores them.
constexpr const char* kGoldenFields[] = {"digest", "sim_ms", "events",
                                         "trace_records"};

std::vector<std::string> golden_values(const RunRecord& r) {
  const std::int64_t ns = r.metrics.sim_time.as_nanos();
  char sim_ms[48];
  std::snprintf(sim_ms, sizeof sim_ms, "%" PRId64 ".%06" PRId64,
                ns / 1000000, ns % 1000000);
  return {"\"" + digest_hex(r.metrics.digest) + "\"", sim_ms,
          std::to_string(r.metrics.events),
          std::to_string(r.metrics.trace_records)};
}

std::string golden_key(const RunRecord& r) {
  return escaped(r.suite + "/" + r.name);
}

/// The raw value of `"key": <value>` in one line of the golden table:
/// a quoted string keeps its quotes; a number runs to the next ',' or
/// '}'.  Empty when the key is absent.
std::string golden_field(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const auto at = line.find(needle);
  if (at == std::string_view::npos) return {};
  const auto begin = at + needle.size();
  if (begin < line.size() && line[begin] == '"') {
    const auto end = line.find('"', begin + 1);
    if (end == std::string_view::npos) return {};
    return std::string(line.substr(begin, end - begin + 1));
  }
  const auto end = line.find_first_of(",}", begin);
  return std::string(line.substr(begin, end - begin));
}

std::string unquoted(const std::string& s) {
  return s.size() >= 2 && s.front() == '"' ? s.substr(1, s.size() - 2) : s;
}

using CounterList = std::vector<std::pair<std::string, std::string>>;

/// A point's counters as (name, rendered value), in the body's order.
CounterList golden_counters(const RunRecord& r) {
  CounterList out;
  for (const auto& [name, value] : r.metrics.counters) {
    out.emplace_back(escaped(name), std::to_string(value));
  }
  return out;
}

/// The `"counters": {"name": value, ...}` object of one table line
/// (empty when the point pinned none).  Counter names never contain a
/// quote, and values are integers.
CounterList golden_counters(std::string_view line) {
  CounterList out;
  constexpr std::string_view kNeedle = "\"counters\": {";
  const auto at = line.find(kNeedle);
  if (at == std::string_view::npos) return out;
  const auto end = line.find('}', at);
  for (auto pos = line.find('"', at + kNeedle.size()); pos < end;
       pos = line.find('"', pos)) {
    const auto name_end = line.find('"', pos + 1);
    const auto value_at = name_end + 3;  // skip `": `
    const auto value_end = line.find_first_of(",}", value_at);
    out.emplace_back(std::string(line.substr(pos + 1, name_end - pos - 1)),
                     std::string(line.substr(value_at, value_end - value_at)));
    pos = value_end;
  }
  return out;
}

}  // namespace

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void write_golden_json(std::ostream& os,
                       const std::vector<RunRecord>& results) {
  os << "{\n";
  os << "  \"schema\": \"acc-bench-golden/v2\",\n";
  os << "  \"compiler\": \"" << escaped(compiler_id()) << "\",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto values = golden_values(results[i]);
    os << "    {\"point\": \"" << golden_key(results[i]) << "\"";
    for (std::size_t f = 0; f < values.size(); ++f) {
      os << ", \"" << kGoldenFields[f] << "\": " << values[f];
    }
    const auto counters = golden_counters(results[i]);
    if (!counters.empty()) {
      os << ", \"counters\": {";
      for (std::size_t c = 0; c < counters.size(); ++c) {
        os << (c ? ", " : "") << "\"" << counters[c].first
           << "\": " << counters[c].second;
      }
      os << "}";
    }
    os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

int check_golden(std::istream& is, const std::vector<RunRecord>& results,
                 std::FILE* err) {
  std::string compiler;
  std::vector<std::pair<std::string, std::string>> table;  // key, line
  for (std::string line; std::getline(is, line);) {
    if (const auto c = golden_field(line, "compiler"); !c.empty()) {
      compiler = unquoted(c);
    }
    if (const auto k = golden_field(line, "point"); !k.empty()) {
      table.emplace_back(unquoted(k), line);
    }
  }
  if (table.empty()) {
    std::fprintf(err, "golden table has no points\n");
    return 2;
  }
  const std::string built_with = compiler_id();
  const bool same_compiler = compiler == built_with;
  if (!same_compiler) {
    std::fprintf(err,
                 "note: golden table written with \"%s\", this binary built "
                 "with \"%s\"\n",
                 compiler.c_str(), built_with.c_str());
  }
  auto fail = [&] {
    if (!same_compiler) {
      std::fprintf(err,
                   "  (toolchains differ: floating-point results such as the "
                   "FFT's may legitimately move; re-pin with "
                   "--write-golden if this build is the new reference)\n");
    }
    return 1;
  };
  std::vector<bool> seen(table.size(), false);
  for (const auto& r : results) {
    const std::string key = golden_key(r);
    std::size_t at = 0;
    while (at < table.size() && table[at].first != key) ++at;
    if (at == table.size()) {
      std::fprintf(err, "GOLDEN MISMATCH %s: point not in the table\n",
                   key.c_str());
      return fail();
    }
    seen[at] = true;
    if (!r.ok) {
      std::fprintf(err, "GOLDEN MISMATCH %s: point failed: %s\n",
                   key.c_str(), r.error.c_str());
      return fail();
    }
    const auto values = golden_values(r);
    for (std::size_t f = 0; f < values.size(); ++f) {
      const std::string want = golden_field(table[at].second, kGoldenFields[f]);
      if (want != values[f]) {
        std::fprintf(err, "GOLDEN MISMATCH %s: %s golden %s, run %s\n",
                     key.c_str(), kGoldenFields[f], want.c_str(),
                     values[f].c_str());
        return fail();
      }
    }
    // Counters pair up by position, so a moved, renamed, added or
    // dropped column is reported at the first place the lists differ.
    const auto want = golden_counters(table[at].second);
    const auto got = golden_counters(r);
    for (std::size_t c = 0; c < std::max(want.size(), got.size()); ++c) {
      if (c < want.size() && c < got.size() && want[c] == got[c]) continue;
      if (c < want.size() && c < got.size() && want[c].first == got[c].first) {
        std::fprintf(err, "GOLDEN MISMATCH %s: counter %s golden %s, run %s\n",
                     key.c_str(), got[c].first.c_str(), want[c].second.c_str(),
                     got[c].second.c_str());
      } else {
        std::fprintf(err,
                     "GOLDEN MISMATCH %s: counter #%zu golden %s, run %s\n",
                     key.c_str(), c,
                     c < want.size() ? want[c].first.c_str() : "(none)",
                     c < got.size() ? got[c].first.c_str() : "(none)");
      }
      return fail();
    }
  }
  // A table point of a suite the run covered but did not produce.
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (seen[i]) continue;
    for (const auto& r : results) {
      if (table[i].first.rfind(escaped(r.suite) + "/", 0) == 0) {
        std::fprintf(err, "GOLDEN MISMATCH %s: in the table but not run\n",
                     table[i].first.c_str());
        return fail();
      }
    }
  }
  return 0;
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

void write_bench_json(std::ostream& os, const std::vector<RunRecord>& results,
                      const BenchJsonMeta& meta) {
  os << "{\n";
  os << "  \"schema\": \"acc-bench-results/v4\",\n";
  os << "  \"point_set\": \"" << escaped(meta.point_set) << "\",\n";
  os << "  \"threads\": " << meta.threads << ",\n";
  os << "  \"sweep_wall_ms\": " << number(meta.sweep_wall_ms) << ",\n";
  os << "  \"suites\": {\n";
  // Group by suite, preserving submission order of both suites and
  // points (results are already in submission order).
  std::vector<std::string> suite_order;
  for (const auto& r : results) {
    bool seen = false;
    for (const auto& s : suite_order) seen = seen || s == r.suite;
    if (!seen) suite_order.push_back(r.suite);
  }
  for (std::size_t si = 0; si < suite_order.size(); ++si) {
    const std::string& suite = suite_order[si];
    os << "    \"" << escaped(suite) << "\": {\n";
    os << "      \"points\": {\n";
    bool first = true;
    for (const auto& r : results) {
      if (r.suite != suite) continue;
      if (!first) os << ",\n";
      first = false;
      write_point(os, r, "        ");
    }
    os << "\n      }\n";
    os << "    }" << (si + 1 < suite_order.size() ? "," : "") << "\n";
  }
  os << "  }\n";
  os << "}\n";
}

}  // namespace acc::runner
