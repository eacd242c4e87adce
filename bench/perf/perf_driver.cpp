// perf_driver: runs one benchmark workload in this process and prints
// every metric it measured as one JSON object on stdout.
//
//   perf_driver --workload NAME --seconds S [--seed N] [--smoke]
//               [--trace-dir DIR]
//
// One warm-up rep (discarded), then timed reps until `--seconds` of rep
// wall time have accumulated (at least three).  With --trace-dir, one
// extra traced rep (in-program tracing on, benchmark spans recorded), the
// per-layer probes, and the spans written to DIR/NAME.json as Chrome
// trace JSON.  The determinism gate compares every rep's deterministic
// outputs; a mismatch fails the rep's runs and the exit code.
//
// bench/perf/run.py builds this and is the user-facing entry point; see
// bench/perf/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hpp"

#ifndef ACC_PERF_COMPILER
#define ACC_PERF_COMPILER "unknown"
#endif

namespace perf {

using namespace acc;
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // run.py passes BENCHMARK.json's run_seconds
  bool smoke = false;
  std::string trace_dir;  // empty: no traced rep
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perf_driver: " << why
            << "\nusage: perf_driver --workload NAME --seconds S [--seed N]"
               " [--smoke] [--trace-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--smoke") {
        a.smoke = true;
      } else if (arg == "--trace-dir") {
        a.trace_dir = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds is required and must be positive");
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Peak resident set of this process, in MiB.  VmHWM is the high-water
/// mark of this program's own address space; ru_maxrss (the fallback)
/// also counts the address space the parent had before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One rep's runs, aggregated.
struct Rep {
  double wall_s = 0, setup_s = 0, ctor_s = 0, drive_s = 0, cpu_s = 0;
  double busy_max_s = 0, busy_sum_s = 0, lps = 0;
  std::size_t runs = 0, failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> counts;
  std::int64_t sim_ns = 0;
  bool has_latency = false;
  trace::LatencyHistogram latency;
  std::uint64_t digest = 0;
  std::uint64_t trace_records = 0;

  /// Everything that must repeat exactly across reps of one seed.
  std::map<std::string, double> fingerprint() const {
    auto fp = counts;
    fp["sim_ns"] = static_cast<double>(sim_ns);
    fp["sim_p99_ns"] = static_cast<double>(latency.percentile_ns(0.99));
    fp["failed_runs"] = static_cast<double>(failed);
    return fp;
  }
};

/// A tally of the rep; 0 when no run produced it (e.g. all runs failed).
double tally(const Rep& rep, const char* name) {
  const auto it = rep.counts.find(name);
  return it == rep.counts.end() ? 0.0 : it->second;
}

Rep execute(const Workload& w, const RepConfig& cfg) {
  const double cpu0 = cpu_seconds();
  const std::vector<RunResult> runs = w.rep(cfg);
  Rep rep;
  rep.cpu_s = cpu_seconds() - cpu0;
  for (const RunResult& r : runs) {
    ++rep.runs;
    if (!r.ok) {
      ++rep.failed;
      rep.errors.push_back(r.label + ": " + r.error);
    }
    rep.setup_s += r.ctor_s + r.arm_s;
    rep.ctor_s += r.ctor_s;
    rep.drive_s += r.drive_s;
    rep.sim_ns += r.sim_ns;
    for (const auto& [name, v] : r.counts) {
      double& slot = rep.counts[name];
      slot = name == "net.peak_port_buffer_bytes" ? std::max(slot, v) : slot + v;
    }
    if (r.has_latency) {
      rep.has_latency = true;
      rep.latency.merge(r.latency);
    }
    rep.digest = (rep.digest ^ r.digest) * 1099511628211ULL;
    rep.trace_records += r.trace_records;
    if (!r.shards.empty()) {
      double max_ns = 0, sum_ns = 0;
      for (const auto& s : r.shards) {
        max_ns = std::max(max_ns, static_cast<double>(s.wall_ns));
        sum_ns += static_cast<double>(s.wall_ns);
      }
      rep.busy_max_s += max_ns / 1e9;
      rep.busy_sum_s += sum_ns / 1e9;
      rep.lps = static_cast<double>(r.shards.size());
    }
  }
  rep.wall_s = rep.setup_s + rep.drive_s;
  return rep;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- JSON output ------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  double value = kNan;  // null when the metric does not apply
  std::string unit;
  bool exact = false;  // deterministic: must repeat bit for bit
  std::vector<double> samples;  // per-rep values behind a median
};

std::string unit_of_count(const std::string& name) {
  if (name.rfind("hw.cpu_", 0) == 0) return "sim_s";
  if (name.find("bytes") != std::string::npos) return "bytes";
  return "count";
}

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           bool exact = false) {
    metrics_[name] = Metric{value, unit, exact, {}};
  }
  void sampled(const std::string& name, const std::vector<double>& samples,
               const std::string& unit) {
    metrics_[name] = Metric{median(samples), unit, false, samples};
  }
  std::string json() const {
    std::ostringstream os;
    const char* sep = "";
    for (const auto& [name, m] : metrics_) {
      os << sep << json_str(name) << ":{\"value\":" << json_num(m.value)
         << ",\"unit\":" << json_str(m.unit)
         << ",\"exact\":" << (m.exact ? "true" : "false");
      if (!m.samples.empty()) {
        os << ",\"samples\":[";
        for (std::size_t i = 0; i < m.samples.size(); ++i) {
          os << (i ? "," : "") << json_num(m.samples[i]);
        }
        os << "]";
      }
      os << "}";
      sep = ",";
    }
    return "{" + os.str() + "}";
  }

 private:
  std::map<std::string, Metric> metrics_;
};

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (args.workload == cand.name) w = &cand;
  }
  if (!w) usage("unknown workload " + args.workload);

  RepConfig cfg;
  cfg.seed = args.seed;
  cfg.smoke = args.smoke;
  cfg.engine_threads = w->engine_threads;

  std::size_t attempted = 0, failed = 0, mismatched_reps = 0;
  std::vector<std::string> errors;
  std::optional<std::map<std::string, double>> reference;
  // Determinism gate: the first rep's deterministic outputs are the
  // reference; a rep that differs fails all of its runs.
  auto account = [&](const Rep& rep, const char* what, bool gate) {
    attempted += rep.runs;
    failed += rep.failed;
    errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
    if (!gate) return;
    const auto fp = rep.fingerprint();
    if (!reference) {
      reference = fp;
      return;
    }
    if (fp == *reference) return;
    ++mismatched_reps;
    failed += rep.runs - rep.failed;
    for (const auto& [name, v] : fp) {
      const auto it = reference->find(name);
      if (it == reference->end() || it->second != v) {
        errors.push_back(std::string(what) + " rep differs from the first rep in " +
                         name);
        break;
      }
    }
  };

  if (!args.smoke) account(execute(*w, cfg), "warm-up", true);
  std::vector<Rep> reps;
  double measured = 0;
  do {
    reps.push_back(execute(*w, cfg));
    account(reps.back(), "timed", true);
    measured += reps.back().wall_s;
  } while (!args.smoke && (reps.size() < 3 || measured < args.seconds));
  const double rss_mb = peak_rss_mb();  // before the traced rep adds to it

  auto per_rep = [&](auto f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return v;
  };
  const std::vector<double> walls = per_rep([](const Rep& r) { return r.wall_s; });
  const double wall_median = median(walls);
  const Rep& last = reps.back();
  const bool sharded = last.lps > 0;

  Report m;
  // End to end.
  m.sampled("wall_s", walls, "s");
  m.sampled("setup_s", per_rep([](const Rep& r) { return r.setup_s; }), "s");
  m.set("peak_rss_mb", rss_mb, "MB");
  m.set("sim_s", static_cast<double>(last.sim_ns) / 1e9, "sim_s", true);
  m.set("sim_p99_ms",
        last.has_latency ? static_cast<double>(last.latency.percentile_ns(0.99)) / 1e6
                         : kNan,
        "sim_ms", true);
  m.set("sim_requests",
        last.has_latency ? static_cast<double>(last.latency.count()) : kNan,
        "count", true);

  // Per layer: deterministic tallies, then host-time splits of the
  // untraced reps.
  for (const auto& [name, v] : last.counts) {
    if (name != "kv.payload_bytes") m.set(name, v, unit_of_count(name), true);
  }
  // Tallies only some workloads produce read 0 on the others.
  for (const char* name : {"parallel.windows", "parallel.cross_posts", "kv.requests"}) {
    if (!last.counts.count(name)) m.set(name, 0, "count", true);
  }
  m.set("kv.goodput_mb_s",
        last.has_latency ? tally(last, "kv.payload_bytes") / 1e6 /
                               (static_cast<double>(last.sim_ns) / 1e9)
                         : kNan,
        "MB/sim_s", true);
  m.set("parallel.events_per_window",
        sharded ? tally(last, "sim.events") / tally(last, "parallel.windows")
                : kNan,
        "events", true);
  m.sampled("apps.ctor_s", per_rep([](const Rep& r) { return r.ctor_s; }), "s");
  m.sampled("apps.drive_s", per_rep([](const Rep& r) { return r.drive_s; }), "s");
  m.sampled("sim.ns_per_event", per_rep([](const Rep& r) {
              return r.drive_s * 1e9 / tally(r, "sim.events");
            }), "ns");
  m.sampled("parallel.cpu_s", per_rep([](const Rep& r) { return r.cpu_s; }), "s");
  if (sharded) {
    m.sampled("parallel.busy_max_s", per_rep([](const Rep& r) { return r.busy_max_s; }), "s");
    m.sampled("parallel.busy_sum_s", per_rep([](const Rep& r) { return r.busy_sum_s; }), "s");
    m.sampled("parallel.wait_s",
              per_rep([](const Rep& r) { return r.drive_s - r.busy_max_s; }), "s");
    m.sampled("parallel.imbalance", per_rep([](const Rep& r) {
                return r.busy_max_s / (r.busy_sum_s / r.lps);
              }), "ratio");
  } else {
    for (const char* name : {"parallel.busy_max_s", "parallel.busy_sum_s",
                             "parallel.wait_s"}) {
      m.set(name, kNan, "s");
    }
    m.set("parallel.imbalance", kNan, "ratio");
  }

  std::string layers_json = "{}";
  if (!args.trace_dir.empty()) {
    Spans spans;
    RepConfig traced = cfg;
    traced.traced = true;
    traced.spans = &spans;
    const Rep t = [&] {
      SpanScope s(&spans, "traced rep");
      return execute(*w, traced);
    }();
    account(t, "traced", true);
    m.set("trace.records", static_cast<double>(t.trace_records), "count", true);
    m.set("trace.overhead_frac", t.wall_s / wall_median - 1, "ratio");
    if (w->engine_threads > 1) {
      // The sharded digest must not depend on the worker count.
      RepConfig two = traced;
      two.engine_threads = 2;
      two.spans = nullptr;
      const Rep t2 = execute(*w, two);
      account(t2, "traced 2-thread", true);
      if (t2.digest != t.digest) {
        ++mismatched_reps;
        failed += t2.runs;
        errors.push_back("combined digest differs between 2 and " +
                         std::to_string(w->engine_threads) + " engine threads");
      }
      // One thread runs the serial engine, whose event stream differs
      // from the sharded one by design (so it is outside the gate); it
      // times the speed-up base and shows how far serial and sharded
      // results drift apart.
      RepConfig one = cfg;
      one.engine_threads = 1;
      const Rep t1 = execute(*w, one);
      account(t1, "1-thread", false);
      m.set("parallel.speedup_vs_t1", t1.wall_s / wall_median, "ratio");
      m.set("parallel.serial_sim_s", static_cast<double>(t1.sim_ns) / 1e9, "sim_s", true);
      m.set("parallel.serial_events", tally(t1, "sim.events"), "count", true);
    } else {
      m.set("parallel.speedup_vs_t1", kNan, "ratio");
    }
    for (const auto& [name, v] : run_probes(args.seed, args.smoke, &spans)) {
      m.set(name, v, name.substr(name.rfind('_') + 1));  // _ns, _us or _s
    }
    char digest_hex[19];
    std::snprintf(digest_hex, sizeof digest_hex, "0x%016llx",
                  static_cast<unsigned long long>(t.digest));
    const std::string path = args.trace_dir + "/" + w->name + ".json";
    std::ofstream out(path);
    spans.write_chrome_json(out);
    if (!out) {
      errors.push_back("cannot write " + path);
      ++failed;
    }
    std::ostringstream lj;
    lj << "{\"digest\":" << json_str(digest_hex) << ",\"spans\":{";
    const char* sep = "";
    for (const auto& [name, l] : spans.layers()) {
      lj << sep << json_str(name) << ":{\"count\":" << l.count
         << ",\"total_s\":" << json_num(l.total_s)
         << ",\"self_s\":" << json_num(l.self_s) << "}";
      sep = ",";
    }
    lj << "}}";
    layers_json = lj.str();
  }
  m.set("fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted),
        "ratio", true);

  std::cout << "{\"workload\":" << json_str(w->name) << ",\"seed\":" << args.seed
            << ",\"smoke\":" << (args.smoke ? "true" : "false")
            << ",\"engine_threads\":" << w->engine_threads
            << ",\"runs_per_rep\":" << last.runs << ",\"reps\":" << reps.size()
            << ",\"compiler\":" << json_str(ACC_PERF_COMPILER)
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"mismatched_reps\":" << mismatched_reps << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::cout << (i ? "," : "") << json_str(errors[i]);
  }
  std::cout << "],\"metrics\":" << m.json() << ",\"trace\":" << layers_json
            << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  try {
    return perf::run(perf::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perf_driver: " << e.what() << "\n";
    return 1;
  }
}
