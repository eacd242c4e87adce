// apps::run_kv_serving: the open-loop KV serving workload — completion
// and value verification on both transport planes, tail telemetry
// plumbing, Zipf shard skew, and the determinism contract (same seed ->
// same digest and same percentiles) with and without fault injection.
#include "apps/kv_app.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "core/report.hpp"
#include "fault/fault.hpp"
#include "model/calibration.hpp"

namespace acc {
namespace {

apps::KvRunOptions small_opts() {
  apps::KvRunOptions opts;
  opts.clients = 2;
  opts.servers = 2;
  opts.requests_per_client = 24;
  opts.rate_hz = 50000.0;
  return opts;
}

apps::ClusterOptions hardened_options() {
  apps::ClusterOptions copts;
  copts.inic_hw_retransmit = true;
  copts.inic_max_retries = 0;  // retry forever
  return copts;
}

fault::FaultPlan loss_storm() {
  fault::GilbertElliottParams ge;
  ge.p_good_to_bad = 0.1;
  ge.p_bad_to_good = 0.2;
  ge.loss_bad = 0.9;
  fault::FaultPlan plan;
  plan.with_burst_loss(Time::micros(20), Time::seconds(2), ge);
  return plan;
}

void check_complete(const apps::KvRunResult& r,
                    const apps::KvRunOptions& opts) {
  const std::uint64_t expected =
      static_cast<std::uint64_t>(opts.clients * opts.requests_per_client);
  EXPECT_EQ(r.requests, expected);
  EXPECT_EQ(r.responses, expected);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.gets + r.puts, expected);
  EXPECT_EQ(r.latency.count(), expected);
  EXPECT_GT(r.goodput_bytes_per_sec, 0);
  EXPECT_LE(r.p50, r.p99);
  EXPECT_LE(r.p99, r.p999);
  EXPECT_GT(r.p50, Time::zero());
  const std::uint64_t dispatched =
      std::accumulate(r.per_server_requests.begin(),
                      r.per_server_requests.end(), std::uint64_t{0});
  EXPECT_EQ(dispatched, expected);
}

TEST(KvApp, HostPlaneCompletesAndVerifies) {
  const auto opts = small_opts();
  apps::SimCluster cluster(4, apps::Interconnect::kGigabitTcp);
  cluster.engine().set_time_budget(Time::seconds(10));
  const auto r = run_kv_serving(cluster, opts);
  check_complete(r, opts);
}

TEST(KvApp, NicPlaneCompletesAndVerifies) {
  const auto opts = small_opts();
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal);
  cluster.engine().set_time_budget(Time::seconds(10));
  const auto r = run_kv_serving(cluster, opts);
  check_complete(r, opts);
}

TEST(KvApp, TailSummaryFlowsIntoCounters) {
  const auto opts = small_opts();
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal);
  cluster.engine().set_time_budget(Time::seconds(10));
  const auto r = run_kv_serving(cluster, opts);

  const auto report = core::collect_report(cluster);
  auto counter = [&report](const char* name) -> std::int64_t {
    for (const auto& c : report.counters) {
      if (c.name == name) return static_cast<std::int64_t>(c.value);
    }
    return -1;
  };
  EXPECT_EQ(counter("kv/requests"), static_cast<std::int64_t>(r.requests));
  EXPECT_EQ(counter("kv/responses"), static_cast<std::int64_t>(r.responses));
  EXPECT_EQ(counter("kv/p50_ns"),
            static_cast<std::int64_t>(r.latency.percentile_ns(0.50)));
  EXPECT_EQ(counter("kv/p99_ns"),
            static_cast<std::int64_t>(r.latency.percentile_ns(0.99)));
  EXPECT_EQ(counter("kv/p999_ns"),
            static_cast<std::int64_t>(r.latency.percentile_ns(0.999)));
  EXPECT_EQ(counter("kv/goodput_bytes_per_sec"), r.goodput_bytes_per_sec);
}

// The determinism contract, under chaos: the same (options, seed, fault
// plan) replays the same trace digest and the same percentiles.
TEST(KvApp, SameSeedSameDigestUnderFaultInjection) {
  const auto opts = small_opts();
  std::uint64_t digest[2];
  std::uint64_t p99[2];
  Time total[2];
  for (int run = 0; run < 2; ++run) {
    apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                             model::default_calibration(), hardened_options());
    cluster.tracer().enable(/*ring_capacity=*/256);
    cluster.engine().set_time_budget(Time::seconds(10));
    fault::FaultInjector injector(cluster, loss_storm());
    const auto r = run_kv_serving(cluster, opts);
    EXPECT_TRUE(r.verified);  // every value correct despite ~30% loss
    digest[run] = cluster.tracer().digest();
    p99[run] = r.latency.percentile_ns(0.99);
    total[run] = r.total;
  }
  EXPECT_EQ(digest[0], digest[1]);
  EXPECT_EQ(p99[0], p99[1]);
  EXPECT_EQ(total[0], total[1]);

  // And a different workload seed must not replay the same run.
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal,
                           model::default_calibration(), hardened_options());
  cluster.tracer().enable(/*ring_capacity=*/256);
  cluster.engine().set_time_budget(Time::seconds(10));
  fault::FaultInjector injector(cluster, loss_storm());
  auto reseeded = opts;
  reseeded.seed = opts.seed + 1;
  const auto r = run_kv_serving(cluster, reseeded);
  EXPECT_TRUE(r.verified);
  EXPECT_NE(r.latency.percentile_ns(0.99), p99[0]);
#ifndef ACC_TRACE_DISABLED
  EXPECT_NE(cluster.tracer().digest(), digest[0]);
#endif
}

TEST(KvApp, ArrivalProcessesDiffer) {
  auto opts = small_opts();
  // (makespan, p99, trace digest) of one run; the digest is 0 in a
  // trace-off build, so the timings carry the comparison there.
  auto run = [&opts](apps::ArrivalProcess arrivals) {
    apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal);
    cluster.tracer().enable(/*ring_capacity=*/256);
    cluster.engine().set_time_budget(Time::seconds(10));
    auto o = opts;
    o.arrivals = arrivals;
    const auto r = run_kv_serving(cluster, o);
    EXPECT_TRUE(r.verified);
    return std::make_tuple(r.total, r.latency.percentile_ns(0.99),
                           cluster.tracer().digest());
  };
  const auto poisson = run(apps::ArrivalProcess::kPoisson);
  const auto fixed = run(apps::ArrivalProcess::kDeterministic);
  EXPECT_NE(std::get<0>(poisson), std::get<0>(fixed));
  EXPECT_NE(std::get<1>(poisson), std::get<1>(fixed));
#ifndef ACC_TRACE_DISABLED
  EXPECT_NE(std::get<2>(poisson), std::get<2>(fixed));
#endif
}

TEST(KvApp, ZipfSkewConcentratesShardLoad) {
  // Same request stream, two skews: hot-key traffic (theta ~ 1.2) must
  // concentrate on its hottest shard harder than uniform keys do.
  auto shard_spread = [](double theta) {
    apps::KvRunOptions opts;
    opts.clients = 2;
    opts.servers = 4;
    opts.requests_per_client = 128;
    opts.rate_hz = 100000.0;
    opts.zipf_theta = theta;
    apps::SimCluster cluster(6, apps::Interconnect::kInicIdeal);
    cluster.engine().set_time_budget(Time::seconds(10));
    const auto r = run_kv_serving(cluster, opts);
    EXPECT_TRUE(r.verified);
    std::uint64_t hottest = 0;
    for (std::uint64_t n : r.per_server_requests) {
      hottest = std::max(hottest, n);
    }
    return hottest;
  };
  EXPECT_GT(shard_spread(1.2), shard_spread(0.0));
}

TEST(KvApp, ExpectedValueContractIsStable) {
  // A PUT then GET round-trip hinges on both endpoints computing the
  // same value; pin a couple of spot values so the contract can't drift
  // silently between the server and the verifier.
  EXPECT_EQ(apps::kv_expected_value(0), apps::kv_expected_value(0));
  EXPECT_NE(apps::kv_expected_value(0), apps::kv_expected_value(1));
}

TEST(KvApp, RejectsInconsistentOptions) {
  apps::SimCluster cluster(4, apps::Interconnect::kInicIdeal);
  {
    auto opts = small_opts();
    opts.servers = 3;  // not a power of two
    opts.clients = 1;
    EXPECT_THROW(run_kv_serving(cluster, opts), std::invalid_argument);
  }
  {
    auto opts = small_opts();
    opts.clients = 4;  // 4 + 2 != cluster size 4
    EXPECT_THROW(run_kv_serving(cluster, opts), std::invalid_argument);
  }
  {
    auto opts = small_opts();
    opts.rate_hz = 0.0;
    EXPECT_THROW(run_kv_serving(cluster, opts), std::invalid_argument);
  }
  {
    auto opts = small_opts();
    opts.get_fraction = 1.5;
    EXPECT_THROW(run_kv_serving(cluster, opts), std::invalid_argument);
  }
}

}  // namespace
}  // namespace acc
