// Per-layer probes: each one times calls into a single module's public
// API on a fixed shape, so a change to that module shows up here even
// when a workload's end-to-end time hides it.  Each probe repeats its
// measurement and reports the median.
#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "algo/fft.hpp"
#include "algo/sort.hpp"
#include "net/lp_map.hpp"
#include "net/lp_workload.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "workloads.hpp"

namespace perf {

using namespace acc;

namespace {

/// Median of `reps` calls of `f`, each returning one measurement.
template <class F>
double median_of(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Engine::schedule_at + run over callbacks spread like kv_serving's
/// request issue times (2000 requests at 20 kHz: 100 ms of simulated
/// time).  Nanoseconds per callback.
double heap_probe_ns(std::uint64_t seed, bool smoke) {
  const std::size_t n = smoke ? 50'000 : 1'000'000;
  std::mt19937_64 rng(seed);
  std::vector<Time> when(n);
  for (auto& t : when) {
    t = Time::nanos(static_cast<std::int64_t>(rng() % 100'000'000));
  }
  return median_of(3, [&] {
    sim::Engine eng;
    std::uint64_t fired = 0;
    const auto t0 = Clock::now();
    for (const Time t : when) eng.schedule_at(t, [&fired] { ++fired; });
    eng.run();
    const double s = since(t0);
    if (fired != n) throw std::runtime_error("heap probe lost callbacks");
    return s * 1e9 / static_cast<double>(n);
  });
}

sim::Process ping(sim::Channel<int>& out, sim::Channel<int>& in, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    out.send_now(i);
    (void)co_await in.recv();
  }
}

sim::Process pong(sim::Channel<int>& in, sim::Channel<int>& out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    out.send_now(co_await in.recv());
  }
}

/// Two processes ping-ponging over channels: nanoseconds per coroutine
/// resume (two per round trip).
double resume_probe_ns(bool smoke) {
  const int rounds = smoke ? 10'000 : 200'000;
  return median_of(3, [&] {
    sim::Engine eng;
    sim::Channel<int> a(eng), b(eng);
    sim::ProcessGroup group(eng);
    const auto t0 = Clock::now();
    group.spawn(ping(a, b, rounds));
    group.spawn(pong(a, b, rounds));
    group.join();
    return since(t0) * 1e9 / (2.0 * rounds);
  });
}

/// Counts deliveries; the forward probe's endpoints.
class Sink : public net::Endpoint {
 public:
  void deliver(const net::Frame&) override { ++frames; }
  std::uint64_t frames = 0;
};

/// A standalone Fabric on fat_tree(3) with seeded injections at a light
/// load (no drops): nanoseconds of Fabric forwarding per switch hop.
double forward_probe_ns(std::uint64_t seed, bool smoke) {
  const std::size_t hosts = smoke ? 128 : 1024;
  const std::size_t frames = smoke ? 2'000 : 50'000;
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyConfig::fat_tree(3);
  std::mt19937_64 rng(seed);
  struct Injection {
    Time at;
    int src, dst;
  };
  std::vector<Injection> plan(frames);
  for (auto& inj : plan) {
    inj.src = static_cast<int>(rng() % hosts);
    inj.dst = static_cast<int>(rng() % (hosts - 1));
    if (inj.dst >= inj.src) ++inj.dst;
    // ~50 frames per host per 20 ms: far below line rate.
    inj.at = Time::nanos(static_cast<std::int64_t>(rng() % 20'000'000));
  }
  return median_of(3, [&] {
    sim::Engine eng;
    net::Fabric fabric(eng, hosts, cfg);
    std::vector<Sink> sinks(hosts);
    for (std::size_t h = 0; h < hosts; ++h) {
      fabric.attach(static_cast<int>(h), sinks[h]);
    }
    std::uint64_t hops = 0;
    for (const auto& inj : plan) {
      hops += fabric.hop_count(inj.src, inj.dst);
      eng.schedule_at(inj.at, [&fabric, inj] {
        net::Frame f;
        f.src = inj.src;
        f.dst = inj.dst;
        f.payload = Bytes(1024);
        f.wire = Bytes(1078);
        fabric.inject(std::move(f));
      });
    }
    const auto t0 = Clock::now();
    eng.run();
    const double s = since(t0);
    if (fabric.frames_forwarded() != frames) {
      throw std::runtime_error("forward probe dropped frames");
    }
    return s * 1e9 / static_cast<double>(hops);
  });
}

/// run_lp_workload on sharded_ring's shape (fat_tree(3), the cluster's
/// 5 us cross-switch lookahead) with no per-hop work, at 4 threads:
/// microseconds of window/barrier/mailbox overhead per window.  5 ms of
/// traffic gives ~1000 windows, enough to average over.
double window_probe_us(std::uint64_t seed, bool smoke) {
  const net::NetworkConfig fabric_defaults;
  net::LpWorkloadConfig cfg;
  cfg.topology = net::TopologyConfig::fat_tree(3);
  cfg.hosts = smoke ? 128 : 1024;
  cfg.frames_per_host = 4;
  cfg.inject_spread = Time::millis(5);
  cfg.link_latency = fabric_defaults.link_latency + fabric_defaults.switch_latency;
  cfg.switch_work = 0;
  cfg.seed = seed;
  cfg.trace = false;
  return median_of(3, [&] {
    const auto t0 = Clock::now();
    const auto r = net::run_lp_workload(cfg, /*threads=*/4);
    return since(t0) * 1e6 / static_cast<double>(r.windows);
  });
}

}  // namespace

std::map<std::string, double> run_probes(std::uint64_t seed, bool smoke,
                                         Spans* spans) {
  std::map<std::string, double> m;
  {
    SpanScope s(spans, "probe sim.heap");
    m["sim.heap_probe_ns"] = heap_probe_ns(seed, smoke);
  }
  {
    SpanScope s(spans, "probe sim.resume");
    m["sim.resume_probe_ns"] = resume_probe_ns(smoke);
  }
  {
    SpanScope s(spans, "probe net.forward");
    m["net.forward_probe_ns"] = forward_probe_ns(seed, smoke);
  }
  {
    SpanScope s(spans, "probe parallel.window");
    m["parallel.window_probe_us"] = window_probe_us(seed, smoke);
  }
  {
    SpanScope s(spans, "probe net.topology");
    const std::size_t hosts = smoke ? 128 : 1024;
    net::TopologyPlan plan;
    m["net.topology_build_s"] = median_of(5, [&] {
      const auto t0 = Clock::now();
      plan = net::build_topology(net::TopologyConfig::fat_tree(3), hosts);
      return since(t0);
    });
    m["net.lp_partition_s"] = median_of(5, [&] {
      const auto t0 = Clock::now();
      const auto part = net::build_lp_partition(plan, Time::micros(5));
      const double s = since(t0);
      if (part.lp_count != plan.switches.size()) {
        throw std::runtime_error("partition lost a switch");
      }
      return s;
    });
  }
  {
    SpanScope s(spans, "probe algo.fft2d");
    const std::size_t n = smoke ? 64 : 256;
    std::mt19937_64 rng(seed);
    algo::Matrix<algo::Complex> input(n, n);
    for (auto& v : input.storage()) {
      v = {static_cast<double>(rng() % 1000), static_cast<double>(rng() % 1000)};
    }
    m["algo.fft2d_s"] = median_of(5, [&] {
      algo::Matrix<algo::Complex> work = input;
      const auto t0 = Clock::now();
      algo::fft2d_inplace(work);
      return since(t0);
    });
  }
  {
    SpanScope s(spans, "probe algo.sort");
    const std::vector<algo::Key> keys =
        algo::uniform_keys(smoke ? std::size_t{1} << 16 : std::size_t{1} << 20, seed);
    m["algo.sort_s"] = median_of(5, [&] {
      std::vector<algo::Key> work = keys;
      const auto t0 = Clock::now();
      algo::cache_aware_sort(work, 256);
      const double s = since(t0);
      if (!std::is_sorted(work.begin(), work.end())) {
        throw std::runtime_error("cache_aware_sort left keys unsorted");
      }
      return s;
    });
  }
  return m;
}

}  // namespace perf
