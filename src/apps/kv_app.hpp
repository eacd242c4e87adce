// Open-loop key-value / parameter-server serving workload over the
// fabric — the ROADMAP's "millions of users" item.
//
// Every workload before this one was batch (FFT, sort, collectives);
// this one models sustained request traffic, where the quantity that
// matters is the latency *tail* under load.  Client nodes issue GET/PUT
// requests at a configured arrival rate — open loop: the next request's
// issue time never waits on the previous response, so queueing delay
// shows up in the measured latency instead of silently throttling the
// generator (the coordinated-omission trap).  Keys are Zipf-skewed
// (algo::ZipfTable, the skew machinery of skew_test/sort_app) and
// sharded across server nodes by top-bit bucketing of the mixed key
// (algo::bucket_index).  Servers are single-service-unit queues: each
// request costs 2 us of service, responses are fired back fire-and-forget
// over SimCluster::transfer, so the full host-vs-INIC transport story
// (per-packet TCP host costs and interrupts vs. on-card cut-through,
// retransmission planes, degraded fallback, fault windows) shapes the
// measured distribution.
//
// Per-request latency (request issue -> response delivered at the
// client) lands in a trace::LatencyHistogram; p50/p99/p999 and goodput
// flow into the run result, the engine's CounterRegistry (kv/* counters,
// visible in ClusterReport), and — via the runner's serving_tail suite —
// the BENCH_results.json schema-v3 `latency` object.
//
// Determinism: all randomness (arrival gaps, key ranks, GET/PUT coin)
// comes from per-client Rng streams derived from `seed`, so the same
// (cluster config, options) replays the same trace digest and the same
// percentiles, bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/cluster.hpp"
#include "common/units.hpp"
#include "trace/latency.hpp"

namespace acc::apps {

/// Request arrival process at each client.
enum class ArrivalProcess {
  kPoisson,        // exponential inter-arrival gaps (memoryless load)
  kDeterministic,  // fixed 1/rate gaps (isolates queueing from burstiness)
};

const char* to_string(ArrivalProcess arrivals);

struct KvRunOptions {
  /// Node partition: nodes [0, clients) are clients, [clients,
  /// clients + servers) are servers; their sum must equal the cluster
  /// size.  `servers` must be a power of two (top-bit shard mapping).
  std::size_t clients = 4;
  std::size_t servers = 4;

  /// Open-loop load: each client issues exactly `requests_per_client`
  /// requests with issue times drawn at `rate_hz` requests/second.
  std::size_t requests_per_client = 64;
  double rate_hz = 20000.0;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;

  /// Key popularity: Zipf(theta) over the workload's 1024 distinct keys
  /// (theta = 0.99 is the classic YCSB skew; 0 = uniform).
  double zipf_theta = 0.99;

  /// Mix: GETs carry a 64-byte request up and a 2 KiB value down; PUTs
  /// carry the value up and a 64-byte ack down.
  double get_fraction = 0.9;

  std::uint64_t seed = 42;
  /// Check every response's key/value against the deterministic store
  /// contract (PUT writes kv_expected_value(key); GET returns it).
  bool verify = true;
};

struct KvRunResult {
  std::size_t clients = 0;
  std::size_t servers = 0;
  std::uint64_t requests = 0;   // issued (== completed on a healthy run)
  std::uint64_t responses = 0;  // completed round trips
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  /// Response payload bytes delivered to clients (the goodput numerator).
  Bytes payload_bytes = Bytes::zero();
  Time total = Time::zero();  // last process finish (run makespan)

  /// Per-request latency distribution and its nearest-rank summary.
  trace::LatencyHistogram latency;
  Time p50 = Time::zero();
  Time p99 = Time::zero();
  Time p999 = Time::zero();
  std::int64_t goodput_bytes_per_sec = 0;

  /// Requests dispatched per server shard (Zipf skew lands unevenly).
  std::vector<std::uint64_t> per_server_requests;
  bool verified = false;
};

/// The value the store holds for `key` (PUTs write it, GETs return it) —
/// exposed so tests can check responses independently.
std::uint64_t kv_expected_value(std::uint32_t key);

/// Runs the open-loop serving workload on `cluster` (any interconnect;
/// size must equal opts.clients + opts.servers).  Throws
/// std::invalid_argument on inconsistent options.
KvRunResult run_kv_serving(SimCluster& cluster, const KvRunOptions& opts = {});

}  // namespace acc::apps
