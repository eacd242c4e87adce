#include "apps/sort_app.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algo/sort.hpp"
#include "apps/host_costs.hpp"
#include "sim/process.hpp"

namespace acc::apps {

namespace {

using algo::Key;

struct BucketPayload {
  int sender = -1;
  std::vector<Key> keys;
};

struct NodeSortState {
  std::vector<Key> local;      // initial keys on this node
  std::vector<Key> received;   // keys gathered for the final sort
  std::vector<std::size_t> outgoing_counts;  // keys destined to each node
  const std::vector<Key>* splitters = nullptr;  // sampling pre-sort phase
  Time phase1 = Time::zero();
  Time phase2 = Time::zero();
  Time countsort = Time::zero();
};

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Keys node `p` holds initially (even split with remainder spread).
std::size_t initial_keys(std::size_t total, std::size_t p_count,
                         std::size_t p) {
  return total / p_count + (p < total % p_count ? 1 : 0);
}

/// Destination distribution pass: explicit splitters when the sampling
/// pre-sort phase is on, top-bit bucketing otherwise.
std::vector<std::vector<Key>> partition_for_nodes(const NodeSortState& state,
                                                  std::span<const Key> keys,
                                                  std::size_t p_count) {
  if (state.splitters != nullptr) {
    return algo::splitter_partition(keys, *state.splitters);
  }
  return algo::bucket_sort_partition(keys, p_count);
}

sim::Process sort_node_tcp(SimCluster& cluster, std::size_t me,
                           NodeSortState& state, bool verify,
                           std::size_t cache_buckets) {
  const std::size_t p_count = cluster.size();
  hw::Node& node = cluster.node(me);
  const model::Calibration& cal = cluster.calibration();
  const std::size_t n_local = verify ? state.local.size()
                                     : state.outgoing_counts.empty()
                                           ? 0
                                           : std::accumulate(
                                                 state.outgoing_counts.begin(),
                                                 state.outgoing_counts.end(),
                                                 std::size_t{0});

  // Phase 1: bucket sort the local keys into P destination buckets.
  state.phase1 = bucket_sort_time(cal, n_local);
  co_await node.cpu().compute(state.phase1);
  std::vector<std::vector<Key>> buckets;
  if (verify) {
    buckets = partition_for_nodes(state, state.local, p_count);
  }

  // The node's own bucket skips the network but still needs the
  // receive-side (phase 2) bucket sort into cache-sized buckets.
  std::size_t received_keys = verify ? buckets[me].size()
                                     : state.outgoing_counts.empty()
                                           ? 0
                                           : state.outgoing_counts[me];
  if (verify) {
    state.received.insert(state.received.end(), buckets[me].begin(),
                          buckets[me].end());
  }
  {
    const Time t = bucket_sort_time(cal, received_keys);
    state.phase2 += t;
    co_await node.cpu().compute(t);
  }

  // All-to-all as serialized pairwise exchanges (MPI_Alltoallv style):
  // in round r, send bucket (me+r)%P and receive from (me-r)%P, then
  // phase-2 bucket sort the received data (the overlap the paper notes a
  // good Gigabit implementation exploits happens round by round).
  for (std::size_t r = 1; r < p_count; ++r) {
    const std::size_t dst = (me + r) % p_count;
    const std::size_t count =
        verify ? buckets[dst].size() : state.outgoing_counts[dst];
    std::any payload;
    if (verify) {
      payload = BucketPayload{static_cast<int>(me), std::move(buckets[dst])};
    }
    sim::Process send = cluster.tcp(me).send_message(
        static_cast<int>(dst), Bytes(count * sizeof(Key)), r,
        std::move(payload));
    send.start(cluster.node_engine(me));

    proto::Message msg = co_await cluster.tcp(me).inbox().recv();
    co_await send;

    const std::size_t got = msg.size.count() / sizeof(Key);
    received_keys += got;
    if (verify) {
      auto bucket = std::any_cast<BucketPayload>(std::move(msg.payload));
      state.received.insert(state.received.end(), bucket.keys.begin(),
                            bucket.keys.end());
    }
    const Time t = bucket_sort_time(cal, got);
    state.phase2 += t;
    co_await node.cpu().compute(t);
  }

  // Final phase: count sort every cache-resident bucket.
  state.countsort = count_sort_time(cal, received_keys);
  co_await node.cpu().compute(state.countsort);
  if (verify) {
    algo::cache_aware_sort(state.received, cache_buckets);
  }
}

sim::Process sort_node_inic(SimCluster& cluster, std::size_t me,
                            NodeSortState& state, bool verify,
                            std::size_t cache_buckets) {
  const std::size_t p_count = cluster.size();
  hw::Node& node = cluster.node(me);
  const model::Calibration& cal = cluster.calibration();
  inic::InicCard& card = cluster.card(me);
  const bool prototype =
      cluster.interconnect() == Interconnect::kInicPrototype;
  // The receive-side stream sorter fans out into at most the hardware
  // limit; the idealized card sorts straight into the cache buckets.
  const std::size_t hw_buckets =
      std::min<std::size_t>(card.config().max_hw_buckets, cache_buckets);

  // Send side: the card bucket sorts the stream and scatters — zero host
  // compute.  Bursts from all destinations share the card's stages.
  std::vector<std::vector<Key>> buckets;
  if (verify) {
    buckets = partition_for_nodes(state, state.local, p_count);
  }
  std::vector<std::unique_ptr<sim::Process>> sends;
  for (std::size_t q = 0; q < p_count; ++q) {
    if (q == me) continue;
    const std::size_t count =
        verify ? buckets[q].size() : state.outgoing_counts[q];
    std::any payload;
    if (verify) {
      payload = BucketPayload{static_cast<int>(me), std::move(buckets[q])};
    }
    // Routed through the cluster so a card in a fault/reset window can
    // fall back to the TCP plane (degraded mode) instead of stalling.
    sends.push_back(std::make_unique<sim::Process>(
        cluster.transfer(static_cast<int>(me), static_cast<int>(q),
                         Bytes(count * sizeof(Key)), 0, std::move(payload))));
    sends.back()->start(cluster.node_engine(me));
  }

  // Own bucket: host -> card -> (stream sorter) -> host.
  std::size_t received_keys = verify ? buckets[me].size()
                                     : state.outgoing_counts[me];
  if (verify) {
    state.received.insert(state.received.end(), buckets[me].begin(),
                          buckets[me].end());
  }
  co_await card.dma_from_host(Bytes(received_keys * sizeof(Key)));
  for (std::size_t b = 0; b < hw_buckets; ++b) {
    card.accumulate_for_host(
        b, Bytes(received_keys * sizeof(Key) / hw_buckets));
  }

  // Receive side: the card bucket sorts arriving data into hardware
  // buckets and trickles 64 KB chunks to the host (Equation 15).
  for (std::size_t i = 0; i + 1 < p_count; ++i) {
    proto::Message msg = co_await cluster.inbox(me).recv();
    const std::size_t count = msg.size.count() / sizeof(Key);
    received_keys += count;
    if (verify) {
      auto bucket = std::any_cast<BucketPayload>(std::move(msg.payload));
      state.received.insert(state.received.end(), bucket.keys.begin(),
                            bucket.keys.end());
    }
    for (std::size_t b = 0; b < hw_buckets; ++b) {
      card.accumulate_for_host(b, Bytes(msg.size.count() / hw_buckets));
    }
  }
  for (auto& s : sends) co_await *s;
  co_await card.flush_to_host();

  // Prototype only: the 16 hardware buckets are refined on the host
  // before count sorting (Figure 7's second-stage bucket sort).
  if (prototype && hw_buckets < cache_buckets) {
    state.phase2 = bucket_sort_time(cal, received_keys);
    co_await node.cpu().compute(state.phase2);
  }

  state.countsort = count_sort_time(cal, received_keys);
  co_await node.cpu().compute(state.countsort);
  if (verify) {
    if (prototype) {
      state.received = algo::two_phase_sort(state.received, hw_buckets,
                                            cache_buckets);
    } else {
      algo::cache_aware_sort(state.received, cache_buckets);
    }
  }
}

}  // namespace

SortRunResult run_parallel_sort(SimCluster& cluster, std::size_t total_keys,
                                const SortRunOptions& opts) {
  const std::size_t p_count = cluster.size();
  if (!is_pow2(p_count)) {
    throw std::invalid_argument("run_parallel_sort: P must be a power of two");
  }

  std::vector<NodeSortState> state(p_count);
  std::vector<Key> all_keys;
  // Keys are materialized when verification needs them, or when the
  // distribution/splitters make destination loads data-dependent.
  const bool need_keys = opts.verify ||
                         opts.distribution != KeyDistribution::kUniform ||
                         opts.sampling_splitters;
  auto make_keys = [&](std::size_t p) {
    const std::size_t n_local = initial_keys(total_keys, p_count, p);
    return opts.distribution == KeyDistribution::kGaussian
               ? algo::gaussian_keys(n_local, opts.seed + p,
                                     opts.gaussian_sigma)
               : algo::uniform_keys(n_local, opts.seed + p);
  };

  std::vector<Key> splitters;
  if (need_keys) {
    for (std::size_t p = 0; p < p_count; ++p) state[p].local = make_keys(p);
    if (opts.sampling_splitters && p_count > 1) {
      // Sampling pre-sort phase: ~128 evenly spaced keys per node feed
      // the splitter choice (modelled as part of phase 1; the sample
      // exchange is tiny next to the data redistribution).
      std::vector<Key> sample;
      for (std::size_t p = 0; p < p_count; ++p) {
        const auto& local = state[p].local;
        const std::size_t step = std::max<std::size_t>(local.size() / 128, 1);
        for (std::size_t i = 0; i < local.size(); i += step) {
          sample.push_back(local[i]);
        }
      }
      splitters = algo::choose_splitters(sample, p_count);
      for (std::size_t p = 0; p < p_count; ++p) {
        state[p].splitters = &splitters;
      }
    }
  }
  for (std::size_t p = 0; p < p_count; ++p) {
    const std::size_t n_local = initial_keys(total_keys, p_count, p);
    if (opts.verify) {
      all_keys.insert(all_keys.end(), state[p].local.begin(),
                      state[p].local.end());
    } else if (need_keys) {
      // Timing-only but data-dependent: take the real destination
      // histogram, then drop the keys.
      auto buckets = partition_for_nodes(state[p], state[p].local, p_count);
      state[p].outgoing_counts.resize(p_count);
      for (std::size_t q = 0; q < p_count; ++q) {
        state[p].outgoing_counts[q] = buckets[q].size();
      }
      state[p].local.clear();
      state[p].local.shrink_to_fit();
    } else {
      // Timing-only uniform: even split across destinations.
      state[p].outgoing_counts.assign(p_count, n_local / p_count);
      for (std::size_t q = 0; q < n_local % p_count; ++q) {
        ++state[p].outgoing_counts[q];
      }
    }
  }

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    if (is_inic(cluster.interconnect()) && p_count > 1) {
      group.spawn_on(cluster.node_lp(p),
                     sort_node_inic(cluster, p, state[p], opts.verify,
                                    opts.cache_buckets));
    } else {
      group.spawn_on(cluster.node_lp(p),
                     sort_node_tcp(cluster, p, state[p], opts.verify,
                                   opts.cache_buckets));
    }
  }
  const Time total = group.join();

  SortRunResult result;
  result.total_keys = total_keys;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.total = total;
  for (const auto& s : state) {
    result.count_sort = std::max(result.count_sort, s.countsort);
    result.bucket_phase1 = std::max(result.bucket_phase1, s.phase1);
    result.bucket_phase2 = std::max(result.bucket_phase2, s.phase2);
  }
  result.redistribution = total - result.count_sort;

  if (opts.verify) {
    std::sort(all_keys.begin(), all_keys.end());
    std::vector<Key> gathered;
    gathered.reserve(all_keys.size());
    for (const auto& s : state) {
      gathered.insert(gathered.end(), s.received.begin(), s.received.end());
    }
    result.verified = gathered == all_keys;
  }
  return result;
}

SortRunResult run_serial_sort(const model::Calibration& cal,
                              std::size_t total_keys) {
  SortRunResult result;
  result.total_keys = total_keys;
  result.processors = 1;
  result.bucket_phase1 = bucket_sort_time(cal, total_keys);
  result.bucket_phase2 = bucket_sort_time(cal, total_keys);
  result.count_sort = count_sort_time(cal, total_keys);
  result.total =
      result.bucket_phase1 + result.bucket_phase2 + result.count_sort;
  result.redistribution = result.total - result.count_sort;
  result.verified = true;
  return result;
}

}  // namespace acc::apps
