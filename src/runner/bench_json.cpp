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

using Pairs = std::vector<std::pair<std::string, std::string>>;

/// `{"name": value, ...}` over values already rendered as JSON.
std::string object(const Pairs& pairs) {
  std::string out = "{";
  for (const auto& [name, value] : pairs) {
    out += (out.size() > 1 ? ", \"" : "\"") + name + "\": " + value;
  }
  return out + "}";
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// A point's params and counters as JSON objects, in their order.
std::string params_object(const RunRecord& r) {
  Pairs params;
  for (const auto& [name, value] : r.params) {
    params.emplace_back(escaped(name), quoted(escaped(value)));
  }
  return object(params);
}

std::string counters_object(const RunRecord& r) {
  Pairs counters;
  for (const auto& [name, value] : r.metrics.counters) {
    counters.emplace_back(escaped(name), std::to_string(value));
  }
  return object(counters);
}

void write_point(std::ostream& os, const RunRecord& r,
                 const std::string& indent) {
  const RunMetrics& m = r.metrics;
  Pairs fields = {{"params", params_object(r)}};
  if (r.ok) {
    fields.emplace_back("sim_ms", number(m.sim_time.as_millis()));
    if (m.speedup != 0.0) fields.emplace_back("speedup", number(m.speedup));
    fields.emplace_back("digest", quoted(digest_hex(m.digest)));
  } else {
    fields.emplace_back("error", quoted(escaped(r.error)));
  }
  fields.emplace_back("wall_ms", number(r.wall_ms));
  fields.emplace_back("wall_ns", std::to_string(r.wall_ns));
  if (r.ok) {
    fields.emplace_back("events", std::to_string(m.events));
    fields.emplace_back("events_per_sec", number(r.events_per_sec()));
    // Schema v4: parallel-engine scaling fields, emitted only for points
    // that ran on the window scheduler so v3-era points are byte-stable.
    if (m.threads > 1) {
      fields.emplace_back("threads", std::to_string(m.threads));
    }
    if (m.scaling_efficiency != 0.0) {
      fields.emplace_back("scaling_efficiency", number(m.scaling_efficiency));
    }
    if (m.latency.present) {
      const LatencySummary& l = m.latency;
      fields.emplace_back(
          "latency",
          object({{"count", std::to_string(l.count)},
                  {"p50_ns", std::to_string(l.p50_ns)},
                  {"p99_ns", std::to_string(l.p99_ns)},
                  {"p999_ns", std::to_string(l.p999_ns)},
                  {"mean_ns", std::to_string(l.mean_ns)},
                  {"max_ns", std::to_string(l.max_ns)},
                  {"goodput_bytes_per_sec",
                   std::to_string(l.goodput_bytes_per_sec)}}));
    }
    if (!m.counters.empty()) {
      fields.emplace_back("counters", counters_object(r));
    }
  }
  os << indent << quoted(escaped(r.name)) << ": {\n";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    os << indent << "  " << quoted(fields[i].first) << ": "
       << fields[i].second << (i + 1 < fields.size() ? ",\n" : "\n");
  }
  os << indent << "}";
}

std::string golden_key(const RunRecord& r) {
  return escaped(r.suite + "/" + r.name);
}

/// A point's golden-table entry as (field, rendered value), in table
/// order; `counters` and `params` are omitted when empty.
Pairs golden_entry(const RunRecord& r) {
  const std::int64_t ns = r.metrics.sim_time.as_nanos();
  char sim_ms[48];
  std::snprintf(sim_ms, sizeof sim_ms, "%" PRId64 ".%06" PRId64,
                ns / 1000000, ns % 1000000);
  Pairs entry = {{"point", quoted(golden_key(r))},
                 {"digest", quoted(digest_hex(r.metrics.digest))},
                 {"sim_ms", sim_ms},
                 {"events", std::to_string(r.metrics.events)},
                 {"trace_records", std::to_string(r.metrics.trace_records)}};
  if (!r.metrics.counters.empty()) {
    entry.emplace_back("counters", counters_object(r));
  }
  if (!r.params.empty()) entry.emplace_back("params", params_object(r));
  return entry;
}

/// Index of the quote that closes the string opened at `open`.
std::size_t closing_quote(std::string_view line, std::size_t open) {
  std::size_t i = open + 1;
  while (i < line.size() && line[i] != '"') i += line[i] == '\\' ? 2 : 1;
  return i;
}

/// The `"name": value` pairs of one table line (or of one object
/// value), from its first quote on.  Values stay raw: a string keeps its
/// quotes and an object its braces.
Pairs parse_pairs(std::string_view line) {
  Pairs out;
  for (auto pos = line.find('"'); pos < line.size() && line[pos] == '"';) {
    const auto name_end = closing_quote(line, pos);
    const auto at = name_end + 3;  // skip `": `
    if (at >= line.size()) break;
    auto end = line[at] == '"' ? closing_quote(line, at) + 1
                               : line.find_first_of(",}", at);
    if (line[at] == '{') {
      end = at + 1;
      while (end < line.size() && line[end] != '}') {
        end = (line[end] == '"' ? closing_quote(line, end) : end) + 1;
      }
      ++end;
    }
    end = std::min(end, line.size());
    out.emplace_back(std::string(line.substr(pos + 1, name_end - pos - 1)),
                     std::string(line.substr(at, end - at)));
    pos = end + 2;  // skip `, `
  }
  return out;
}

std::string value_of(const Pairs& pairs, std::string_view name) {
  for (const auto& [key, value] : pairs) {
    if (key == name) return value;
  }
  return "";
}

std::string unquoted(const std::string& s) {
  return s.size() >= 2 && s.front() == '"' ? s.substr(1, s.size() - 2) : s;
}

/// Reports where the table's `what` object and the run's first differ.
/// Entries pair up by position, so a moved, renamed, added or dropped
/// entry is reported at the first place the lists differ.  Returns
/// whether they differ.
bool first_difference(std::FILE* err, const std::string& key,
                      const char* what, const std::string& want_object,
                      const std::string& got_object) {
  const Pairs want = parse_pairs(want_object);
  const Pairs got = parse_pairs(got_object);
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    if (i < want.size() && i < got.size() && want[i] == got[i]) continue;
    if (i < want.size() && i < got.size() && want[i].first == got[i].first) {
      std::fprintf(err, "GOLDEN MISMATCH %s: %s %s golden %s, run %s\n",
                   key.c_str(), what, got[i].first.c_str(),
                   unquoted(want[i].second).c_str(),
                   unquoted(got[i].second).c_str());
    } else {
      std::fprintf(err, "GOLDEN MISMATCH %s: %s #%zu golden %s, run %s\n",
                   key.c_str(), what, i,
                   i < want.size() ? want[i].first.c_str() : "(none)",
                   i < got.size() ? got[i].first.c_str() : "(none)");
    }
    return true;
  }
  return false;
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
  os << "  \"schema\": \"acc-bench-golden/v3\",\n";
  os << "  \"compiler\": \"" << escaped(compiler_id()) << "\",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "    " << object(golden_entry(results[i]))
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

int check_golden(std::istream& is, const std::vector<RunRecord>& results,
                 std::FILE* err) {
  std::string compiler;
  std::vector<std::pair<std::string, Pairs>> table;  // key, entry
  for (std::string line; std::getline(is, line);) {
    Pairs pairs = parse_pairs(line);
    if (const auto c = value_of(pairs, "compiler"); !c.empty()) {
      compiler = unquoted(c);
    }
    if (const auto k = value_of(pairs, "point"); !k.empty()) {
      table.emplace_back(unquoted(k), std::move(pairs));
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
    // Params first: a gate pairs records by them.
    const Pairs& want = table[at].second;
    const Pairs got = golden_entry(r);
    if (first_difference(err, key, "param", value_of(want, "params"),
                         value_of(got, "params"))) {
      return fail();
    }
    for (const char* field : {"digest", "sim_ms", "events", "trace_records"}) {
      if (value_of(want, field) != value_of(got, field)) {
        std::fprintf(err, "GOLDEN MISMATCH %s: %s golden %s, run %s\n",
                     key.c_str(), field, value_of(want, field).c_str(),
                     value_of(got, field).c_str());
        return fail();
      }
    }
    if (first_difference(err, key, "counter", value_of(want, "counters"),
                         value_of(got, "counters"))) {
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
