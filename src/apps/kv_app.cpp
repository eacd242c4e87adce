#include "apps/kv_app.hpp"

#include <any>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algo/sort.hpp"
#include "common/rng.hpp"
#include "proto/message.hpp"
#include "proto/tagged_inbox.hpp"
#include "sim/process.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace acc::apps {

namespace {

// App-level tags.  Must stay clear of inic::InicCard::kTriggerTagSpace
// (bit 62), which the card reserves for collective trigger frames.
constexpr std::uint64_t kRequestTag = 0x4B560001;   // "KV" request
constexpr std::uint64_t kResponseTag = 0x4B560002;  // "KV" response

// Distinct keys the Zipf ranks map onto.
constexpr std::size_t kKeySpace = 1024;
// GETs carry kRequestBytes up and kValueBytes down; PUTs the reverse.
constexpr Bytes kRequestBytes = Bytes(64);
constexpr Bytes kValueBytes = Bytes(2048);
// Per-request server service cost (single service unit per server:
// requests queue behind it, which is where the tail comes from).
constexpr Time kServiceTime = Time::nanos(2'000);

struct KvRequest {
  std::uint64_t id = 0;
  int client = -1;
  std::uint32_t key = 0;
  bool is_get = true;
  Time issued_at = Time::zero();
};

struct KvResponse {
  std::uint64_t id = 0;
  std::uint32_t key = 0;
  bool is_get = true;
  std::uint64_t value = 0;
  Time issued_at = Time::zero();  // echoed; latency = now - issued_at
};

/// One fully materialized request: everything random is drawn up front
/// from the per-client Rng streams, so the schedule is a pure function of
/// (options, seed) no matter how transfers interleave during the run.
struct PendingRequest {
  std::uint64_t id = 0;
  int client = -1;
  int server_node = -1;
  std::size_t server_index = 0;
  std::uint32_t key = 0;
  bool is_get = true;
  Time issue_at = Time::zero();
};

struct KvCounters {
  trace::Counter* requests = nullptr;
  trace::Counter* responses = nullptr;
  trace::Counter* gets = nullptr;
  trace::Counter* puts = nullptr;
  trace::Counter* response_bytes = nullptr;
};

/// The KV counters as registered on one engine.  Sharded, each LP's
/// registry carries its own lane of every counter (single writer) and
/// SimCluster::counters_snapshot() sums the lanes; serial, every call
/// resolves to the same registry so this is the historical behaviour.
KvCounters kv_counters(sim::Engine& eng) {
  KvCounters ctr;
  ctr.requests = &eng.counters().get(trace::Category::kApp, -1, "kv/requests");
  ctr.responses =
      &eng.counters().get(trace::Category::kApp, -1, "kv/responses");
  ctr.gets = &eng.counters().get(trace::Category::kApp, -1, "kv/gets");
  ctr.puts = &eng.counters().get(trace::Category::kApp, -1, "kv/puts");
  ctr.response_bytes =
      &eng.counters().get(trace::Category::kApp, -1, "kv/response_bytes");
  return ctr;
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Issues one request at its scheduled time.  One process per request is
/// what makes the load open loop: the next arrival never waits on this
/// transfer (or its response), so server queueing delay lands in the
/// measured latency instead of throttling the generator.
sim::Process issue_request(SimCluster& cluster, PendingRequest req,
                           const KvCounters& ctr) {
  sim::Engine& eng = cluster.node_engine(static_cast<std::size_t>(req.client));
  co_await sim::DelayUntil{eng, req.issue_at};
  const Bytes up = req.is_get ? kRequestBytes : kValueBytes;
  KvRequest payload;
  payload.id = req.id;
  payload.client = req.client;
  payload.key = req.key;
  payload.is_get = req.is_get;
  payload.issued_at = eng.now();
  ctr.requests->add(eng.now(), 1);
  (req.is_get ? ctr.gets : ctr.puts)->add(eng.now(), 1);
  co_await cluster.transfer(req.client, req.server_node, up, kRequestTag,
                            std::any(payload));
}

/// Per-server shard: a single service unit draining requests in arrival
/// order.  Each request costs kServiceTime; responses go back
/// fire-and-forget (held in a shard-local inflight list — spawning into a
/// shared group from concurrent LP workers would race on its vectors) so
/// the next request's service overlaps the previous response's flight.
sim::Process serve_shard(SimCluster& cluster, int server_node,
                         proto::TaggedInbox& inbox,
                         std::uint64_t& requests_served) {
  sim::Engine& eng =
      cluster.node_engine(static_cast<std::size_t>(server_node));
  std::unordered_map<std::uint32_t, std::uint64_t> store;
  std::vector<std::unique_ptr<sim::Process>> inflight;
  for (;;) {
    proto::Message msg;
    co_await inbox.recv(kRequestTag, msg);
    auto req = std::any_cast<KvRequest>(std::move(msg.payload));
    co_await sim::Delay{eng, kServiceTime};
    ++requests_served;
    KvResponse resp;
    resp.id = req.id;
    resp.key = req.key;
    resp.is_get = req.is_get;
    resp.issued_at = req.issued_at;
    if (req.is_get) {
      const auto it = store.find(req.key);
      resp.value =
          it == store.end() ? kv_expected_value(req.key) : it->second;
    } else {
      store[req.key] = kv_expected_value(req.key);
      resp.value = store[req.key];  // PUT ack echoes the written value
    }
    const Bytes down = req.is_get ? kValueBytes : kRequestBytes;
    inflight.push_back(std::make_unique<sim::Process>(cluster.transfer(
        server_node, req.client, down, kResponseTag, std::any(resp))));
    inflight.back()->start(eng);
  }
}

/// Per-client sink: collects exactly this client's expected response
/// count and records each round-trip latency.
sim::Process collect_responses(SimCluster& cluster, int client,
                               std::size_t expected, bool verify,
                               const KvCounters& ctr,
                               trace::LatencyHistogram& latency,
                               Bytes& payload_bytes,
                               std::uint8_t& values_ok) {
  sim::Engine& eng = cluster.node_engine(static_cast<std::size_t>(client));
  proto::TaggedInbox inbox(cluster.inbox(static_cast<std::size_t>(client)));
  for (std::size_t i = 0; i < expected; ++i) {
    proto::Message msg;
    co_await inbox.recv(kResponseTag, msg);
    const auto resp = std::any_cast<KvResponse>(std::move(msg.payload));
    latency.record(eng.now() - resp.issued_at);
    payload_bytes = payload_bytes + msg.size;
    ctr.responses->add(eng.now(), 1);
    ctr.response_bytes->add(eng.now(), msg.size.count());
    if (verify && resp.value != kv_expected_value(resp.key)) {
      values_ok = 0;
    }
  }
}

}  // namespace

const char* to_string(ArrivalProcess arrivals) {
  switch (arrivals) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kDeterministic: return "deterministic";
  }
  return "?";
}

std::uint64_t kv_expected_value(std::uint32_t key) {
  // splitmix64 finalizer with a KV-specific offset: a fixed, cheap
  // key -> value contract both endpoints can compute independently.
  std::uint64_t z = static_cast<std::uint64_t>(key) + 0xA5A5A5A5DEADBEEFULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

KvRunResult run_kv_serving(SimCluster& cluster, const KvRunOptions& opts) {
  if (opts.clients == 0 || opts.servers == 0) {
    throw std::invalid_argument("run_kv_serving: need >= 1 client and server");
  }
  if (!is_pow2(opts.servers)) {
    throw std::invalid_argument(
        "run_kv_serving: servers must be a power of two (top-bit sharding)");
  }
  if (opts.clients + opts.servers != cluster.size()) {
    throw std::invalid_argument(
        "run_kv_serving: clients + servers must equal the cluster size");
  }
  if (!(opts.rate_hz > 0.0)) {
    throw std::invalid_argument("run_kv_serving: rate_hz must be positive");
  }
  if (!(opts.get_fraction >= 0.0 && opts.get_fraction <= 1.0)) {
    throw std::invalid_argument(
        "run_kv_serving: get_fraction must be in [0, 1]");
  }

  sim::Engine& eng = cluster.engine();
  const Time base = eng.now();

  // Materialize every request up front.  Draw order per client is fixed
  // (gap, key rank, GET/PUT coin), so the whole schedule — and therefore
  // the trace digest and the latency distribution — is a pure function
  // of (options, seed).
  const algo::ZipfTable zipf(kKeySpace, opts.zipf_theta);
  std::vector<PendingRequest> schedule;
  schedule.reserve(opts.clients * opts.requests_per_client);
  std::uint64_t next_id = 0;
  for (std::size_t c = 0; c < opts.clients; ++c) {
    Rng rng(opts.seed ^ (0x9E3779B97F4A7C15ULL * (c + 1)));
    Time t = base;
    for (std::size_t i = 0; i < opts.requests_per_client; ++i) {
      double gap_s = 1.0 / opts.rate_hz;
      if (opts.arrivals == ArrivalProcess::kPoisson) {
        gap_s = -std::log(1.0 - rng.uniform01()) / opts.rate_hz;
      }
      t = t + Time::seconds(gap_s);
      PendingRequest req;
      req.id = next_id++;
      req.client = static_cast<int>(c);
      req.key = algo::zipf_rank_key(zipf.sample(rng));
      req.is_get = rng.chance(opts.get_fraction);
      req.server_index = algo::bucket_index(req.key, opts.servers);
      req.server_node = static_cast<int>(opts.clients + req.server_index);
      req.issue_at = t;
      schedule.push_back(req);
    }
  }

  KvRunResult result;
  result.clients = opts.clients;
  result.servers = opts.servers;
  result.per_server_requests.assign(opts.servers, 0);

  // Servers loop forever, so they live in a group that is never joined;
  // their response transfers sit in each shard's local inflight list.
  // Clients (issuers + sinks) form the joined group whose last finish is
  // the run makespan.
  sim::ProcessGroup servers(*cluster.parallel());
  std::vector<std::unique_ptr<proto::TaggedInbox>> server_inboxes;
  server_inboxes.reserve(opts.servers);
  for (std::size_t s = 0; s < opts.servers; ++s) {
    const int node = static_cast<int>(opts.clients + s);
    server_inboxes.push_back(std::make_unique<proto::TaggedInbox>(
        cluster.inbox(static_cast<std::size_t>(node))));
    servers.spawn_on(cluster.node_lp(static_cast<std::size_t>(node)),
                     serve_shard(cluster, node, *server_inboxes.back(),
                                 result.per_server_requests[s]),
                     "kv-server");
  }

  std::vector<trace::LatencyHistogram> per_client(opts.clients);
  std::vector<Bytes> client_bytes(opts.clients, Bytes::zero());
  // One verify flag per client (distinct memory locations): the sinks run
  // on their nodes' LPs, so a single shared bool would be a data race.
  std::vector<std::uint8_t> client_ok(opts.clients, 1);
  // Each client's counters, resolved once on its node's engine and shared
  // by its sink and every one of its requests.
  std::vector<KvCounters> client_ctr;
  client_ctr.reserve(opts.clients);
  for (std::size_t c = 0; c < opts.clients; ++c) {
    client_ctr.push_back(kv_counters(cluster.node_engine(c)));
  }
  sim::ProcessGroup clients(*cluster.parallel());
  for (std::size_t c = 0; c < opts.clients; ++c) {
    clients.spawn_on(cluster.node_lp(c),
                     collect_responses(cluster, static_cast<int>(c),
                                       opts.requests_per_client, opts.verify,
                                       client_ctr[c], per_client[c],
                                       client_bytes[c], client_ok[c]),
                     "kv-client");
  }
  for (const PendingRequest& req : schedule) {
    clients.spawn_on(
        cluster.node_lp(static_cast<std::size_t>(req.client)),
        issue_request(cluster, req,
                      client_ctr[static_cast<std::size_t>(req.client)]),
        "kv-issue");
  }
  result.total = clients.join() - base;

  // Partitioned recording reduced by merge() — associative, so the
  // combined histogram is independent of client order.
  for (std::size_t c = 0; c < opts.clients; ++c) {
    result.latency.merge(per_client[c]);
    result.payload_bytes = result.payload_bytes + client_bytes[c];
  }
  result.requests = schedule.size();
  result.responses = result.latency.count();
  for (const PendingRequest& req : schedule) {
    if (req.is_get) {
      ++result.gets;
    } else {
      ++result.puts;
    }
  }
  result.p50 = result.latency.p50();
  result.p99 = result.latency.p99();
  result.p999 = result.latency.p999();
  if (result.total > Time::zero()) {
    result.goodput_bytes_per_sec = static_cast<std::int64_t>(
        static_cast<double>(result.payload_bytes.count()) * 1e9 /
        static_cast<double>(result.total.as_nanos()));
  }
  bool values_ok = true;
  for (std::uint8_t ok : client_ok) {
    if (!ok) values_ok = false;
  }
  result.verified =
      opts.verify && values_ok && result.responses == result.requests;

  // Tail summary as counters so percentiles surface in ClusterReport and
  // counter-comparing sweeps without reaching into the result struct.
  eng.counters()
      .get(trace::Category::kApp, -1, "kv/p50_ns")
      .add(eng.now(), result.latency.percentile_ns(0.50));
  eng.counters()
      .get(trace::Category::kApp, -1, "kv/p99_ns")
      .add(eng.now(), result.latency.percentile_ns(0.99));
  eng.counters()
      .get(trace::Category::kApp, -1, "kv/p999_ns")
      .add(eng.now(), result.latency.percentile_ns(0.999));
  eng.counters()
      .get(trace::Category::kApp, -1, "kv/goodput_bytes_per_sec")
      .add(eng.now(),
           static_cast<std::uint64_t>(result.goodput_bytes_per_sec));
  return result;
}

}  // namespace acc::apps
