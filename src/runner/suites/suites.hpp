// The bench_all suites (runner/bench_points.hpp), one file per driver
// family:
//   apps.cpp       the paper figures and the FFT/sort ablations
//   transfers.cpp  two-node transfers and the compute accelerator
//   fabric.cpp     multi-hop topologies and the collective backends
//   faults.cpp     failover, chaos and the serving tail
//   engine.cpp     parallel-engine scaling (the speedup floor's shape)
// This header declares them and holds what they share.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "runner/bench_points.hpp"
#include "runner/scenario.hpp"

namespace acc::runner::suites {

inline std::string num(std::size_t v) { return std::to_string(v); }

/// A counter value (RunMetrics counters are signed 64-bit).
template <class T>
std::int64_t i64(T v) { return static_cast<std::int64_t>(v); }

/// A ratio as a fixed-point counter (parts per million), so it rides the
/// serial-vs-pooled counter comparison like every other column.
inline std::int64_t ppm(double ratio) { return std::llround(ratio * 1e6); }

/// One sweep axis: its reduced-grid or its full-grid values.
template <class T>
std::vector<T> axis(bool reduced, std::vector<T> small, std::vector<T> full) {
  return reduced ? small : full;
}

/// Appends a point to `suite`, stamped with the suite's name.
inline void add_point(Suite& suite, std::string name,
                      std::vector<std::pair<std::string, std::string>> params,
                      std::function<RunMetrics()> body) {
  suite.points.push_back(RunPoint{suite.name, std::move(name),
                                  std::move(params), std::move(body)});
}

inline std::string param(const RunRecord& r, const char* name) {
  for (const auto& [key, value] : r.params) {
    if (key == name) return value;
  }
  return "";
}

/// A NIC-vs-host gate.  Pairs every ok record whose `side` param is
/// "nic" with its host twin (the first "host" record with equal params
/// on `match`) and counts the ok pairs `regressed` reports on stderr.
/// Comparing no pair while every record ran is one violation: the gate
/// checked nothing.  Prints `passed` when there are no violations.
inline int twin_gate(
    const std::vector<RunRecord>& records, const char* side,
    std::initializer_list<const char*> match,
    const std::function<bool(const RunRecord& nic, const RunRecord& host)>&
        regressed,
    const char* passed) {
  int compared = 0;
  int regressions = 0;
  for (const auto& nic : records) {
    if (!nic.ok || param(nic, side) != "nic") continue;
    const auto host = std::find_if(
        records.begin(), records.end(), [&](const RunRecord& t) {
          return param(t, side) == "host" &&
                 std::all_of(match.begin(), match.end(), [&](const char* k) {
                   return param(t, k) == param(nic, k);
                 });
        });
    if (host == records.end() || !host->ok) continue;
    ++compared;
    if (regressed(nic, *host)) ++regressions;
  }
  if (compared == 0 && std::all_of(records.begin(), records.end(),
                                   [](const RunRecord& r) { return r.ok; })) {
    std::fprintf(stderr,
                 "VACUOUS GATE: no %s=nic point has a host twin to compare "
                 "against\n",
                 side);
    return 1;
  }
  if (regressions == 0) std::puts(passed);
  return regressions;
}

// The suites, in sweep order.
void add_app_suites(bool reduced, std::vector<Suite>& suites);
void add_transfer_suites(bool reduced, std::vector<Suite>& suites);
Suite topology_suite(bool reduced);
Suite collectives_suite(bool reduced);
Suite failover_suite(bool reduced);
Suite chaos_suite(bool reduced);
Suite serving_suite(bool reduced);
Suite engine_scaling_suite(bool reduced);

}  // namespace acc::runner::suites
