// Concurrent-run isolation: SweepRunner executes independent SimCluster
// runs on a thread pool, and the determinism contract (docs/TRACING.md)
// must survive that — a point's trace digest, counters, simulated time,
// and event count may depend only on its configuration, never on which
// thread ran it or what ran beside it.  These tests execute the same
// seeded scenarios serially and pooled and assert bit-identical results;
// CI additionally runs this binary under ThreadSanitizer
// (ACC_SANITIZE=thread) so any cross-run shared-state access is a hard
// failure, not a flaky digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/sort_app.hpp"
#include "model/fft_model.hpp"
#include "model/sort_model.hpp"
#include "runner/bench_json.hpp"
#include "runner/bench_points.hpp"
#include "runner/sweep.hpp"

namespace acc {
namespace {

using runner::RunMetrics;
using runner::RunPoint;
using runner::RunRecord;
using runner::SweepRunner;

RunMetrics traced_sort_metrics(apps::Interconnect ic, std::size_t keys,
                               std::size_t p, std::uint64_t seed) {
  apps::SimCluster cluster(p, ic);
  cluster.tracer().enable(/*ring_capacity=*/256);
  apps::SortRunOptions opts;
  opts.seed = seed;
  const auto r = apps::run_parallel_sort(cluster, keys, opts);
  EXPECT_TRUE(r.verified);
  RunMetrics m;
  m.sim_time = r.total;
  m.digest = cluster.tracer().digest();
  m.trace_records = cluster.tracer().records_emitted();
  m.events = cluster.engine().events_executed();
  m.counters = {{"count_sort_ns", r.count_sort.as_nanos()},
                {"redistribution_ns", r.redistribution.as_nanos()}};
  return m;
}

RunPoint sort_point(std::size_t p, std::uint64_t seed) {
  return RunPoint{"isolation",
                  "sort/P=" + std::to_string(p) +
                      "/seed=" + std::to_string(seed),
                  {{"P", std::to_string(p)}, {"seed", std::to_string(seed)}},
                  [p, seed] {
                    return traced_sort_metrics(apps::Interconnect::kInicIdeal,
                                               1 << 12, p, seed);
                  }};
}

void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.metrics.digest, b.metrics.digest) << a.name;
  EXPECT_EQ(a.metrics.trace_records, b.metrics.trace_records) << a.name;
  EXPECT_EQ(a.metrics.sim_time, b.metrics.sim_time) << a.name;
  EXPECT_EQ(a.metrics.events, b.metrics.events) << a.name;
  EXPECT_EQ(a.metrics.counters, b.metrics.counters) << a.name;
}

// ---------------------------------------------------------------------
// Serial vs pooled execution of the same seeded scenarios
// ---------------------------------------------------------------------

TEST(SweepRunner, PooledRunReproducesSerialDigestsAndCounters) {
  std::vector<RunPoint> points;
  for (std::size_t p : {1, 2, 4}) {
    for (std::uint64_t seed : {7u, 8u, 9u}) {
      points.push_back(sort_point(p, seed));
    }
  }
  const auto serial = SweepRunner(/*threads=*/1).run(points);
  const auto pooled = SweepRunner(/*threads=*/4).run(points);
  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(pooled.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(pooled[i], serial[i]);
  }
}

TEST(SweepRunner, IdenticalPointsSideBySideStayIsolated) {
  // Eight copies of the *same* scenario racing on four threads: any
  // cross-run contamination (shared RNG, shared counters, shared trace
  // state) would make at least one copy disagree with the others.
  std::vector<RunPoint> points;
  for (int i = 0; i < 8; ++i) points.push_back(sort_point(4, /*seed=*/7));
  const auto results = SweepRunner(/*threads=*/4).run(points);
  const auto reference = SweepRunner(/*threads=*/1).run({sort_point(4, 7)});
  for (const auto& r : results) expect_identical(r, reference[0]);
}

TEST(SweepRunner, BenchSuitePointsReproduceSeriallyWhenPooled) {
  // The real bench_all point set, reduced grid, pooled against serial;
  // CI's pooled `bench_all --points=reduced --check-golden=bench/golden.json`
  // checks the same points against their pinned serial values.
  std::vector<RunPoint> points;
  std::vector<const std::vector<runner::Column>*> columns;  // per point
  const auto suites = runner::bench_suites(/*reduced=*/true);
  for (const auto& suite : suites) {
    points.insert(points.end(), suite.points.begin(), suite.points.end());
    columns.insert(columns.end(), suite.points.size(), &suite.columns);
  }
  ASSERT_GT(points.size(), 10u);
  const auto pooled = SweepRunner(/*threads=*/4).run(points);
  const auto serial = SweepRunner(/*threads=*/1).run(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_GT(serial[i].metrics.trace_records, 0u) << serial[i].name;
    expect_identical(pooled[i], serial[i]);
    // RunMetrics::counter reads a missing name as 0, so a misspelled
    // column would print a plausible zero: every column must be recorded.
    if (!serial[i].ok) continue;
    const auto& counters = serial[i].metrics.counters;
    for (const auto& c : *columns[i]) {
      EXPECT_TRUE(std::any_of(counters.begin(), counters.end(),
                              [&](const auto& kv) {
                                return kv.first == c.counter;
                              }))
          << serial[i].suite << "/" << serial[i].name << " has no counter "
          << c.counter;
    }
  }
}

// ---------------------------------------------------------------------
// The suite registry and its gates, fed hand-built records
// ---------------------------------------------------------------------

using Params = std::vector<std::pair<std::string, std::string>>;
using Counters = std::vector<std::pair<std::string, std::int64_t>>;

RunRecord record(const std::string& name, Params params, Counters counters) {
  RunRecord r;
  r.name = name;
  r.params = std::move(params);
  r.metrics.counters = std::move(counters);
  r.ok = true;
  return r;
}

runner::Gate gate_of(const std::string& suite) {
  for (const auto& s : runner::bench_suites(/*reduced=*/true)) {
    if (s.name == suite) return s.gate;
  }
  ADD_FAILURE() << "no suite " << suite;
  return nullptr;
}

TEST(BenchSuites, RegistryOrderPointNamesAndGates) {
  const auto suites = runner::bench_suites(/*reduced=*/true);
  std::vector<std::string> names;
  std::vector<std::string> gated;
  for (const auto& s : suites) {
    names.push_back(s.name);
    if (s.gate != nullptr) gated.push_back(s.name);
    ASSERT_FALSE(s.points.empty()) << s.name;
    for (const auto& p : s.points) EXPECT_EQ(p.suite, s.name) << p.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "fig8a_fft_sim", "fig8b_sort_sim", "fig4b_transpose",
                       "fig5a_sort_components", "ablation_packet_size",
                       "ablation_dma_threshold",
                       "ablation_interrupt_coalescing",
                       "ablation_key_distribution", "ablation_rc_placement",
                       "ablation_derived_datatypes", "netpipe_pingpong",
                       "ablation_compute_accelerator", "fig_scaling_topology",
                       "collectives", "failover_recovery", "chaos_recovery",
                       "serving_tail", "engine_scaling"}));
  EXPECT_EQ(gated, (std::vector<std::string>{
                       "collectives", "failover_recovery", "serving_tail"}));

  // bench_all is the only printer of these tables, so each registers the
  // columns its figure plots beside the common sim/speedup/digest ones.
  const std::map<std::string, std::vector<std::string>> figure_columns = {
      {"fig8a_fft_sim", {"model_speedup_ppm"}},
      {"fig8b_sort_sim", {"model_speedup_ppm"}},
      {"fig4b_transpose",
       {"nic_comm_ns", "nic_compute_ns", "inic_transpose_ns",
        "partition_bytes"}},
      {"fig5a_sort_components",
       {"count_sort_ns", "bucket_phase1_ns", "bucket_phase2_ns", "comm_ns",
        "partition_bytes"}},
      {"ablation_packet_size", {"redistribution_ns"}},
      {"ablation_dma_threshold", {"dma_efficiency_ppm", "accum_delay_ns"}},
      {"ablation_interrupt_coalescing",
       {"fft_ns", "transpose_ns", "interrupts", "interrupt_cpu_ns"}},
      {"ablation_key_distribution",
       {"plain_ns", "sampled_ns", "sampling_win_ppm"}},
      {"ablation_rc_placement",
       {"host_ns", "pci_rc_ns", "inic_ns", "inic_win_ppm"}},
      {"ablation_derived_datatypes",
       {"payload_bytes", "blocks", "pack_ns", "host_ns", "inic_ns",
        "inic_win_ppm"}},
      {"netpipe_pingpong",
       {"tcp_latency_ns", "inic_latency_ns", "tcp_goodput_bytes_per_s",
        "inic_goodput_bytes_per_s"}},
      {"ablation_compute_accelerator",
       {"ideal_ns", "ideal_slowdown_ppm", "prototype_ns",
        "prototype_slowdown_ppm"}}};
  for (const auto& s : suites) {
    const auto want = figure_columns.find(s.name);
    if (want == figure_columns.end()) continue;
    std::vector<std::string> counters;
    for (const auto& c : s.columns) counters.push_back(c.counter);
    EXPECT_EQ(counters, want->second) << s.name;
  }
}

TEST(BenchSuites, EngineScalingIsTheSimClusterShapeTheFloorReruns) {
  // check_speedup_floor() looks its point up by name in the full grid,
  // so a renamed point must fail here, not only in the floor's CI job.
  std::vector<std::string> names;
  for (const auto& s : runner::bench_suites(/*reduced=*/false)) {
    if (s.name != "engine_scaling") continue;
    for (const auto& p : s.points) names.push_back(p.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "cluster_fattree3/P=1024/threads=1",
                       "cluster_fattree3/P=1024/threads=2",
                       "cluster_fattree3/P=1024/threads=4"}));
  for (const char* threads : {"1", "2", "4"}) {
    const std::string floor_point =
        std::string(runner::kSpeedupFloorPoint) + "/threads=" + threads;
    EXPECT_NE(std::find(names.begin(), names.end(), floor_point),
              names.end())
        << floor_point;
  }
}

TEST(BenchSuites, FigureEightPointsCarryTheAnalyticInicSpeedup) {
  // Figs. 4(a) and 5(b) plot the analytic INIC series beside the GigE
  // speedups fig8a/fig8b already simulate; each point's model column
  // must be the closed form at its own (n or keys, P), cache_buckets 256.
  std::size_t checked = 0;
  for (const auto& s : runner::bench_suites(/*reduced=*/true)) {
    if (s.name != "fig8a_fft_sim" && s.name != "fig8b_sort_sim") continue;
    for (const auto& p : s.points) {
      std::map<std::string, std::string> params(p.params.begin(),
                                                p.params.end());
      const std::size_t procs = std::stoul(params.at("P"));
      const double model =
          s.name == "fig8a_fft_sim"
              ? model::FftAnalyticModel().inic_speedup(
                    std::stoul(params.at("n")), procs)
              : model::SortAnalyticModel().inic_speedup(
                    std::stoul(params.at("keys")), procs, 256);
      EXPECT_EQ(p.body().counter("model_speedup_ppm"),
                std::llround(model * 1e6))
          << s.name << "/" << p.name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 18u);
}

TEST(BenchSuites, HostCostGateNeedsNicStrictlyCheaper) {
  const runner::Gate gate = gate_of("collectives");
  ASSERT_NE(gate, nullptr);
  const Params host_params = {
      {"collective_backend", "host"}, {"topology", "star"}, {"P", "8"}};
  const Params nic_params = {
      {"collective_backend", "nic"}, {"topology", "star"}, {"P", "8"}};
  std::vector<RunRecord> records = {
      record("host/star/P=8", host_params,
             {{"host_cpu_events", 120}, {"irq_delivered", 40}}),
      record("nic/star/P=8", nic_params,
             {{"host_cpu_events", 0}, {"irq_delivered", 0}}),
      // A NIC point with no host twin is not compared against anything.
      record("nic/torus2/P=16",
             {{"collective_backend", "nic"}, {"topology", "torus2"},
              {"P", "16"}},
             {{"host_cpu_events", 999}, {"irq_delivered", 999}})};
  EXPECT_EQ(gate(records), 0);

  records[1].metrics.counters = {{"host_cpu_events", 120},
                                 {"irq_delivered", 0}};
  EXPECT_EQ(gate(records), 1);
  records[1].metrics.counters = {{"host_cpu_events", 0},
                                 {"irq_delivered", 41}};
  EXPECT_EQ(gate(records), 1);
  records[1].ok = false;  // failed points are the driver's to count
  EXPECT_EQ(gate(records), 0);

  // Every point ran but none has a twin: the gate checked nothing, and
  // that must not pass (a param typo would otherwise unpair the grid).
  const std::vector<RunRecord> unpaired = {records[0], records[2]};
  EXPECT_EQ(gate(unpaired), 1);
}

TEST(BenchSuites, TailGateHoldsTheNicPlaneToABetterP99) {
  const runner::Gate gate = gate_of("serving_tail");
  ASSERT_NE(gate, nullptr);
  auto point = [](const char* plane, const char* topology, const char* chaos,
                  std::uint64_t p99) {
    RunRecord r = record(std::string(plane) + "/" + topology + "/" + chaos,
                         {{"plane", plane},
                          {"topology", topology},
                          {"rate_hz", "20000"},
                          {"chaos", chaos}},
                         {});
    r.metrics.latency.present = true;
    r.metrics.latency.p99_ns = p99;
    return r;
  };
  std::vector<RunRecord> records = {
      point("host", "star", "clean", 1000), point("host", "star", "loss30", 9000),
      // A tie is allowed on a clean fabric...
      point("nic", "star", "clean", 1000), point("nic", "star", "loss30", 4000),
      // ...and a NIC point with no host twin is skipped.
      point("nic", "fattree2", "loss30", 1000000)};
  EXPECT_EQ(gate(records), 0);

  records[3].metrics.latency.p99_ns = 9000;  // a tie under loss fails
  EXPECT_EQ(gate(records), 1);
  records[2].metrics.latency.p99_ns = 1001;  // worse on a clean fabric
  EXPECT_EQ(gate(records), 2);

  // Every point ran but no NIC point has a host twin: nothing was
  // compared, which is one violation rather than a pass.
  const std::vector<RunRecord> unpaired = {records[0], records[4]};
  EXPECT_EQ(gate(unpaired), 1);
}

TEST(BenchSuites, RecoveryGateNeedsAnEpochPerCutAndLiveGoodput) {
  const runner::Gate gate = gate_of("failover_recovery");
  ASSERT_NE(gate, nullptr);
  std::vector<RunRecord> records = {
      record("nic/fattree2/P=16/cuts=2",
             {{"collective_backend", "nic"}, {"cuts", "2"}},
             {{"route_epochs", 2}, {"goodput_bytes_per_s", 1000000}})};
  EXPECT_EQ(gate(records), 0);

  records[0].metrics.counters = {{"route_epochs", 1},
                                 {"goodput_bytes_per_s", 1000000}};
  EXPECT_EQ(gate(records), 1);
  records[0].metrics.counters = {{"route_epochs", 2},
                                 {"goodput_bytes_per_s", 0}};
  EXPECT_EQ(gate(records), 1);
}

// ---------------------------------------------------------------------
// Runner mechanics
// ---------------------------------------------------------------------

TEST(SweepRunner, ScalingRatiosPairEachThreadedRecordWithItsOneThreadShape) {
  auto scaled = [](const std::string& shape, std::size_t threads,
                   std::uint64_t wall_ns) {
    RunRecord r = record(shape + "/threads=" + std::to_string(threads),
                         {{"topology", shape},
                          {"threads", std::to_string(threads)}},
                         {});
    r.suite = "engine_scaling";
    r.metrics.threads = threads;
    r.wall_ns = wall_ns;
    return r;
  };
  // The one-thread baseline may come after its threaded points, as it
  // can finish after them in a pooled sweep.
  std::vector<RunRecord> records = {
      scaled("fattree2", 4, 250), scaled("fattree2", 1, 1000),
      scaled("fattree2", 2, 500), scaled("torus2", 4, 100)};
  runner::derive_scaling_ratios(records);
  EXPECT_DOUBLE_EQ(records[0].metrics.speedup, 4.0);
  EXPECT_DOUBLE_EQ(records[0].metrics.scaling_efficiency, 1.0);
  EXPECT_EQ(records[1].metrics.speedup, 0.0);  // the baseline itself
  EXPECT_DOUBLE_EQ(records[2].metrics.speedup, 2.0);
  EXPECT_EQ(records[3].metrics.speedup, 0.0);  // no one-thread twin
  EXPECT_EQ(records[3].metrics.scaling_efficiency, 0.0);
}

TEST(SweepRunner, ResultsKeepSubmissionOrder) {
  std::vector<RunPoint> points;
  for (int i = 0; i < 16; ++i) {
    points.push_back(RunPoint{"order",
                              "p" + std::to_string(i),
                              {},
                              [i] {
                                RunMetrics m;
                                m.events = static_cast<std::uint64_t>(i);
                                return m;
                              }});
  }
  const auto results = SweepRunner(/*threads=*/4).run(points);
  ASSERT_EQ(results.size(), points.size());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(results[i].name, "p" + std::to_string(i));
    EXPECT_EQ(results[i].metrics.events, static_cast<std::uint64_t>(i));
  }
}

TEST(SweepRunner, ThrowingBodyIsCapturedNotFatal) {
  std::vector<RunPoint> points;
  points.push_back(RunPoint{"err", "boom", {}, []() -> RunMetrics {
                              throw std::runtime_error("exploded");
                            }});
  points.push_back(sort_point(2, 7));
  const auto results = SweepRunner(/*threads=*/2).run(points);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error, "exploded");
  EXPECT_TRUE(results[1].ok) << results[1].error;
}

TEST(SweepRunner, ZeroThreadsPicksHardwareConcurrency) {
  EXPECT_GE(SweepRunner(0).threads(), 1u);
  EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

TEST(BenchJson, DigestHexIsStable16Digits) {
  EXPECT_EQ(runner::digest_hex(0), "0000000000000000");
  EXPECT_EQ(runner::digest_hex(0xdeadbeefcafef00dULL), "deadbeefcafef00d");
}

TEST(BenchJson, NonFiniteNumbersSerializeAsNull) {
  // JSON has no inf/nan literals; a record whose speedup divided by a
  // zero-duration run must still produce a parseable document.
  RunRecord r;
  r.suite = "s";
  r.name = "p";
  r.ok = true;
  r.metrics.speedup = std::numeric_limits<double>::infinity();
  r.wall_ms = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream os;
  runner::write_bench_json(os, {r}, {});
  const std::string json = os.str();
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_NE(json.find("\"speedup\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_ms\": null"), std::string::npos) << json;
}

TEST(BenchJson, SchemaV4EmitsLatencyObjectOnlyWhenPresent) {
  RunRecord with;
  with.suite = "s";
  with.name = "serving";
  with.ok = true;
  with.metrics.latency.present = true;
  with.metrics.latency.count = 128;
  with.metrics.latency.p50_ns = 1000;
  with.metrics.latency.p99_ns = 9000;
  with.metrics.latency.p999_ns = 12000;
  with.metrics.latency.mean_ns = 1500;
  with.metrics.latency.max_ns = 12345;
  with.metrics.latency.goodput_bytes_per_sec = 7777;
  RunRecord without;
  without.suite = "s";
  without.name = "batch";
  without.ok = true;
  std::ostringstream os;
  runner::write_bench_json(os, {with, without}, {});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"acc-bench-results/v4\""),
            std::string::npos);
  EXPECT_NE(json.find("\"latency\": {\"count\": 128, \"p50_ns\": 1000, "
                      "\"p99_ns\": 9000, \"p999_ns\": 12000, "
                      "\"mean_ns\": 1500, \"max_ns\": 12345, "
                      "\"goodput_bytes_per_sec\": 7777}"),
            std::string::npos)
      << json;
  // Exactly one latency object: the batch point must not emit one.
  EXPECT_EQ(json.find("\"latency\""), json.rfind("\"latency\"")) << json;
}

TEST(BenchJson, GoldenTablePinsCountersAndNamesTheFirstThatMoved) {
  RunRecord r;
  r.suite = "suite";
  r.name = "point";
  r.params = {{"plane", "nic"}, {"rate_hz", "20000"}};
  r.ok = true;
  r.metrics.sim_time = Time::nanos(1234567);
  r.metrics.digest = 0xabcdef;
  r.metrics.events = 62;
  r.metrics.trace_records = 71;
  r.metrics.counters = {{"comm_ns", 812}, {"drops", 0}};
  std::ostringstream table;
  runner::write_golden_json(table, {r});
  EXPECT_NE(table.str().find("\"counters\": {\"comm_ns\": 812, \"drops\": 0}"),
            std::string::npos)
      << table.str();
  EXPECT_NE(table.str().find(
                "\"params\": {\"plane\": \"nic\", \"rate_hz\": \"20000\"}"),
            std::string::npos)
      << table.str();

  auto check = [&table](const RunRecord& run, std::string* message) {
    std::istringstream is(table.str());
    std::FILE* err = std::tmpfile();
    const int rc = runner::check_golden(is, {run}, err);
    std::rewind(err);
    char buf[512] = {};
    message->assign(buf, std::fread(buf, 1, sizeof buf - 1, err));
    std::fclose(err);
    return rc;
  };
  std::string message;
  EXPECT_EQ(check(r, &message), 0) << message;

  RunRecord moved = r;
  moved.metrics.counters[1].second = 3;
  EXPECT_EQ(check(moved, &message), 1);
  EXPECT_NE(message.find("counter drops golden 0, run 3"), std::string::npos)
      << message;

  RunRecord reordered = r;
  std::swap(reordered.metrics.counters[0], reordered.metrics.counters[1]);
  EXPECT_EQ(check(reordered, &message), 1);
  EXPECT_NE(message.find("counter #0 golden comm_ns, run drops"),
            std::string::npos)
      << message;

  RunRecord extra = r;
  extra.metrics.counters.emplace_back("retransmits", 0);
  EXPECT_EQ(check(extra, &message), 1);
  EXPECT_NE(message.find("counter #2 golden (none), run retransmits"),
            std::string::npos)
      << message;

  // A param typo moves no metric but would unpair a gate's twins.
  RunRecord typo = r;
  typo.params[1].second = "2000";
  EXPECT_EQ(check(typo, &message), 1);
  EXPECT_NE(message.find("param rate_hz golden 20000, run 2000"),
            std::string::npos)
      << message;
  RunRecord renamed = r;
  renamed.params[0].first = "backend";
  EXPECT_EQ(check(renamed, &message), 1);
  EXPECT_NE(message.find("param #0 golden plane, run backend"),
            std::string::npos)
      << message;
}

TEST(RunRecord, EventsPerSecGuardsDegenerateRecords) {
  RunRecord r;
  r.ok = true;
  r.metrics.events = 1000;
  r.wall_ns = 0;  // timer too coarse to see the body: no division
  EXPECT_EQ(r.events_per_sec(), 0.0);
  r.wall_ns = 1000000;
  r.metrics.events = 0;
  EXPECT_EQ(r.events_per_sec(), 0.0);
  r.metrics.events = 1000;
  r.ok = false;
  EXPECT_EQ(r.events_per_sec(), 0.0);
  r.ok = true;
  // 1000 events over 1 ms of wall clock.
  EXPECT_DOUBLE_EQ(r.events_per_sec(), 1e6);
}

TEST(RunRecord, EventsPerSecUsesRecordWallForParallelPoints) {
  // A parallel-engine point's throughput is its own events over its own
  // wall clock, which includes the window barriers.
  RunRecord r;
  r.ok = true;
  r.wall_ns = 8000000;
  r.metrics.events = 3000;
  r.metrics.threads = 4;
  EXPECT_DOUBLE_EQ(r.events_per_sec(), 375000.0);
  r.ok = false;
  EXPECT_EQ(r.events_per_sec(), 0.0);
  r.ok = true;
  r.wall_ns = 0;
  EXPECT_EQ(r.events_per_sec(), 0.0);
}

TEST(BenchJson, SchemaV4EmitsScalingFieldsOnlyForParallelPoints) {
  RunRecord parallel;
  parallel.suite = "s";
  parallel.name = "par";
  parallel.ok = true;
  parallel.metrics.threads = 4;
  parallel.metrics.scaling_efficiency = 0.525;
  RunRecord serial;
  serial.suite = "s";
  serial.name = "ser";
  serial.ok = true;  // defaults: threads = 1, no efficiency
  std::ostringstream os;
  runner::write_bench_json(os, {parallel, serial}, {});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scaling_efficiency\": 0.525"), std::string::npos)
      << json;
  // Exactly one point-level "threads" (the top-level meta field is the
  // sweep pool size, always present) and one efficiency field: the
  // serial point emits neither.
  EXPECT_EQ(json.find("\"scaling_efficiency\""),
            json.rfind("\"scaling_efficiency\""))
      << json;
  EXPECT_EQ(json.find("\"threads\": 4"), json.rfind("\"threads\": 4")) << json;
}

// ---------------------------------------------------------------------
// The fixed shared-state bugs stay fixed
// ---------------------------------------------------------------------

TEST(SweepRunner, ConcurrentClusterConstructionIsRaceFree) {
  // Construct/destroy clusters concurrently with no app run at all:
  // exercises exactly the two former process-global races (the trace
  // file index and the getenv calls in the constructor/destructor).
  // Meaningful failure mode is a TSan report, not an assertion.
  std::vector<RunPoint> points;
  for (int i = 0; i < 12; ++i) {
    points.push_back(RunPoint{"ctor", "c" + std::to_string(i), {}, [] {
                                apps::SimCluster cluster(
                                    4, apps::Interconnect::kInicIdeal);
                                RunMetrics m;
                                m.events = cluster.size();
                                return m;
                              }});
  }
  const auto results = SweepRunner(/*threads=*/4).run(points);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.metrics.events, 4u);
  }
}

TEST(TraceEnv, CapturedOncePerProcessAndSitesAgree) {
  // The snapshot is immutable and both SimCluster read sites use it;
  // repeated calls must return the same object (one capture per
  // process).
  const apps::TraceEnv& a = apps::trace_env();
  const apps::TraceEnv& b = apps::trace_env();
  EXPECT_EQ(&a, &b);
  // ctest runs this binary without ACC_TRACE set; guard the expectation
  // so a developer running it traced doesn't see a confusing failure.
  if (!a.trace_json) {
    EXPECT_TRUE(a.trace_path.empty());
  }
}

}  // namespace
}  // namespace acc
