// Host backend: the original host-driven collective algorithms, moved
// verbatim behind ICollectiveRoutines.  Every rank runs a send/recv loop
// on its host; combines charge host CPU time on the TCP interconnects
// and ride the INIC stream for free on the INIC ones.  This file must
// stay event-for-event identical to the pre-backend implementation — the
// golden trace digests pin it.
#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "collectives/backend.hpp"
#include "common/rng.hpp"
#include "proto/tagged_inbox.hpp"
#include "sim/process.hpp"

namespace acc::coll {

namespace {

using DoubleVec = std::vector<double>;

constexpr std::uint64_t kBarrierTagBase = 0x0100'0000;
constexpr std::uint64_t kBcastTag = 0x0200'0000;
constexpr std::uint64_t kReduceTag = 0x0300'0000;
constexpr std::uint64_t kAllreduceBcastTag = 0x0400'0000;
constexpr std::uint64_t kAlltoallTagBase = 0x0500'0000;

/// Uniform send/receive over either transport.  Collectives are written
/// once against this shim; the interconnect decides whether messages
/// cross host TCP stacks or card-to-card INIC streams.
class Transport {
 public:
  Transport(apps::SimCluster& cluster, std::size_t me)
      : cluster_(cluster),
        me_(me),
        eng_(cluster.node_engine(me)),
        inic_(apps::is_inic(cluster.interconnect())),
        inbox_(inic_ ? cluster.card(me).card_inbox()
                     : cluster.tcp(me).inbox()) {}

  sim::Process send(std::size_t dst, Bytes size, std::uint64_t tag,
                    std::any payload) {
    if (inic_) {
      co_await cluster_.card(me_).send_stream(static_cast<int>(dst), size,
                                              tag, std::move(payload));
    } else {
      co_await cluster_.tcp(me_).send_message(static_cast<int>(dst), size,
                                              tag, std::move(payload));
    }
  }

  sim::Process recv(std::uint64_t tag, proto::Message& out) {
    co_await inbox_.recv(tag, out);
  }

  bool inic() const { return inic_; }
  std::size_t me() const { return me_; }
  apps::SimCluster& cluster() { return cluster_; }

  /// The engine of this rank's node — its LP's engine when the cluster
  /// is sharded, the cluster engine otherwise.  Rank coroutines must
  /// schedule exclusively here so every event stays on the owning LP.
  sim::Engine& engine() { return eng_; }

 private:
  apps::SimCluster& cluster_;
  std::size_t me_;
  sim::Engine& eng_;
  bool inic_;
  proto::TaggedInbox inbox_;
};

Bytes vec_bytes(std::size_t elements) { return Bytes(elements * sizeof(double)); }

/// Logical-rank -> physical-node permutation for the topology-aware
/// variants; null means identity (the plain binomial collectives).
using RankOrder = std::shared_ptr<const std::vector<std::size_t>>;

std::size_t to_physical(const RankOrder& order, std::size_t logical) {
  return order ? (*order)[logical] : logical;
}

DoubleVec make_vector(std::size_t elements, std::uint64_t seed) {
  Rng rng(seed);
  DoubleVec v(elements);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Combine partial results; on the host path this costs CPU time, on the
/// INIC it rides the stream (charged nowhere).
sim::Process combine(Transport& t, DoubleVec& into, const DoubleVec& from) {
  if (!t.inic()) {
    co_await t.cluster()
        .node(t.me())
        .cpu()
        .compute(host_combine_time(t.cluster(), t.me(), into.size()));
  }
  for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
}

// ---------------------------------------------------------------------
// Barrier: dissemination, ceil(log2 P) rounds.
// ---------------------------------------------------------------------

sim::Process barrier_rank(Transport t, std::size_t p_count, Time enter_delay,
                          Time& entered, Time& left) {
  sim::Engine& eng = t.engine();
  co_await sim::Delay{eng, enter_delay};
  entered = eng.now();

  const std::size_t me = t.me();
  for (std::size_t k = 0, step = 1; step < p_count; ++k, step <<= 1) {
    const std::size_t dst = (me + step) % p_count;
    sim::Process send =
        t.send(dst, Bytes(8), kBarrierTagBase + k, std::any{});
    send.start(eng);
    proto::Message msg;
    co_await t.recv(kBarrierTagBase + k, msg);
    co_await send;
  }
  left = eng.now();
}

// ---------------------------------------------------------------------
// Broadcast: binomial tree from rank 0.
// ---------------------------------------------------------------------

sim::Process bcast_rank(Transport t, std::size_t p_count,
                        std::size_t elements, DoubleVec& data,
                        RankOrder order = nullptr, std::size_t logical = 0) {
  sim::Engine& eng = t.engine();
  // The binomial mask logic runs over *logical* ranks; sends address the
  // physical node holding the target rank.  Identity order: me == t.me().
  const std::size_t me = order ? logical : t.me();

  std::size_t mask = 1;
  while (mask < p_count) {
    if (me & mask) {
      proto::Message msg;
      co_await t.recv(kBcastTag, msg);
      data = std::any_cast<DoubleVec>(std::move(msg.payload));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  std::vector<std::unique_ptr<sim::Process>> sends;
  while (mask > 0) {
    const std::size_t dst = me + mask;
    if ((me & (mask - 1)) == 0 && dst < p_count && !(me & mask)) {
      sends.push_back(std::make_unique<sim::Process>(t.send(
          to_physical(order, dst), vec_bytes(elements), kBcastTag, data)));
      sends.back()->start(eng);
    }
    mask >>= 1;
  }
  for (auto& s : sends) co_await *s;
}

// ---------------------------------------------------------------------
// Reduce: binomial tree toward rank 0, elementwise sum.
// ---------------------------------------------------------------------

sim::Process reduce_steps(Transport& t, std::size_t p_count,
                          std::size_t elements, DoubleVec& data,
                          RankOrder order = nullptr, std::size_t logical = 0) {
  const std::size_t me = order ? logical : t.me();
  for (std::size_t mask = 1; mask < p_count; mask <<= 1) {
    if (me & mask) {
      co_await t.send(to_physical(order, me - mask), vec_bytes(elements),
                      kReduceTag, std::move(data));
      data.clear();
      break;
    }
    const std::size_t src = me + mask;
    if (src < p_count) {
      proto::Message msg;
      co_await t.recv(kReduceTag, msg);
      const auto partial = std::any_cast<DoubleVec>(std::move(msg.payload));
      co_await combine(t, data, partial);
    }
  }
}

sim::Process reduce_rank(Transport t, std::size_t p_count,
                         std::size_t elements, DoubleVec& data,
                         RankOrder order = nullptr, std::size_t logical = 0) {
  co_await reduce_steps(t, p_count, elements, data, order, logical);
}

CollectiveResult run_barrier(apps::SimCluster& cluster) {
  const std::size_t p_count = cluster.size();
  std::vector<Time> entered(p_count), left(p_count);

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    // Staggered entry makes the barrier property non-trivial: the last
    // entrant arrives (P-1) * 50 us after the first.
    group.spawn_on(cluster.node_lp(p),
                   barrier_rank(Transport(cluster, p), p_count,
                                Time::micros(50.0 * static_cast<double>(p)),
                                entered[p], left[p]));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.total = total;
  // Barrier property: nobody leaves before everybody has entered.
  const Time last_entry = *std::max_element(entered.begin(), entered.end());
  const Time first_exit = *std::min_element(left.begin(), left.end());
  result.verified = p_count == 1 || first_exit >= last_entry;
  return result;
}

CollectiveResult run_broadcast(apps::SimCluster& cluster, std::size_t elements,
                               std::uint64_t seed, RankOrder order) {
  const std::size_t p_count = cluster.size();
  const DoubleVec root_data = make_vector(elements, seed);
  std::vector<DoubleVec> data(p_count);  // indexed by physical node
  data[to_physical(order, 0)] = root_data;

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    const std::size_t phys = to_physical(order, p);
    group.spawn_on(cluster.node_lp(phys),
                   bcast_rank(Transport(cluster, phys), p_count, elements,
                              data[phys], order, p));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.payload = vec_bytes(elements);
  result.total = total;
  result.verified = true;
  for (std::size_t p = 0; p < p_count; ++p) {
    if (data[p] != root_data) result.verified = false;
  }
  result.data = std::move(data);
  return result;
}

CollectiveResult run_reduce(apps::SimCluster& cluster, std::size_t elements,
                            std::uint64_t seed, RankOrder order) {
  const std::size_t p_count = cluster.size();
  std::vector<DoubleVec> data(p_count);
  DoubleVec expected(elements, 0.0);
  for (std::size_t p = 0; p < p_count; ++p) {
    data[p] = make_vector(elements, seed + p);
    for (std::size_t i = 0; i < elements; ++i) expected[i] += data[p][i];
  }

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    const std::size_t phys = to_physical(order, p);
    group.spawn_on(cluster.node_lp(phys),
                   reduce_rank(Transport(cluster, phys), p_count, elements,
                               data[phys], order, p));
  }
  const Time total = group.join();

  const DoubleVec& at_root = data[to_physical(order, 0)];
  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.payload = vec_bytes(elements);
  result.total = total;
  result.verified = at_root.size() == elements;
  for (std::size_t i = 0; result.verified && i < elements; ++i) {
    if (std::abs(at_root[i] - expected[i]) > 1e-9) result.verified = false;
  }
  result.data = std::move(data);
  return result;
}

CollectiveResult run_allreduce(apps::SimCluster& cluster, std::size_t elements,
                               std::uint64_t seed, RankOrder order) {
  const std::size_t p_count = cluster.size();
  std::vector<DoubleVec> data(p_count);
  DoubleVec expected(elements, 0.0);
  for (std::size_t p = 0; p < p_count; ++p) {
    data[p] = make_vector(elements, seed + p);
    for (std::size_t i = 0; i < elements; ++i) expected[i] += data[p][i];
  }

  // Reduce to rank 0, then broadcast the sum back down the same tree.
  auto rank_proc = [&](std::size_t p) -> sim::Process {
    const std::size_t phys = to_physical(order, p);
    Transport t(cluster, phys);
    co_await reduce_steps(t, p_count, elements, data[phys], order, p);
    // Rebind tags for the broadcast half.
    sim::Engine& eng = t.engine();
    const std::size_t me = p;
    std::size_t mask = 1;
    while (mask < p_count) {
      if (me & mask) {
        proto::Message msg;
        co_await t.recv(kAllreduceBcastTag, msg);
        data[phys] = std::any_cast<DoubleVec>(std::move(msg.payload));
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    std::vector<std::unique_ptr<sim::Process>> sends;
    while (mask > 0) {
      const std::size_t dst = me + mask;
      if ((me & (mask - 1)) == 0 && dst < p_count && !(me & mask)) {
        sends.push_back(std::make_unique<sim::Process>(
            t.send(to_physical(order, dst), vec_bytes(elements),
                   kAllreduceBcastTag, data[phys])));
        sends.back()->start(eng);
      }
      mask >>= 1;
    }
    for (auto& s : sends) co_await *s;
  };

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    group.spawn_on(cluster.node_lp(to_physical(order, p)), rank_proc(p));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.payload = vec_bytes(elements);
  result.total = total;
  result.verified = true;
  for (std::size_t p = 0; result.verified && p < p_count; ++p) {
    if (data[p].size() != elements) {
      result.verified = false;
      break;
    }
    for (std::size_t i = 0; i < elements; ++i) {
      if (std::abs(data[p][i] - expected[i]) > 1e-9) {
        result.verified = false;
        break;
      }
    }
  }
  result.data = std::move(data);
  return result;
}

CollectiveResult run_alltoall(apps::SimCluster& cluster, std::size_t elements,
                              std::uint64_t seed) {
  const std::size_t p_count = cluster.size();
  // Value sent from s to d is a deterministic function of (s, d).
  auto block_for = [&](std::size_t s, std::size_t d) {
    return make_vector(elements, seed + s * 1000 + d);
  };
  std::vector<std::vector<bool>> got(p_count,
                                     std::vector<bool>(p_count, false));
  // One flag per rank: each coroutine may run on a different LP worker,
  // so a single shared bool would be a write-write race.  uint8_t (not
  // vector<bool>) keeps each rank's flag a distinct memory location.
  std::vector<std::uint8_t> rank_ok(p_count, 1);

  auto rank_proc = [&](std::size_t p) -> sim::Process {
    Transport t(cluster, p);
    sim::Engine& eng = t.engine();
    got[p][p] = true;  // own block stays local
    if (t.inic()) {
      // INIC: all streams go out concurrently under credit control.
      std::vector<std::unique_ptr<sim::Process>> sends;
      for (std::size_t r = 1; r < p_count; ++r) {
        const std::size_t dst = (p + r) % p_count;
        sends.push_back(std::make_unique<sim::Process>(
            t.send(dst, vec_bytes(elements), kAlltoallTagBase + r,
                   block_for(p, dst))));
        sends.back()->start(eng);
      }
      for (std::size_t r = 1; r < p_count; ++r) {
        proto::Message msg;
        co_await t.recv(kAlltoallTagBase + r, msg);
        const auto block = std::any_cast<DoubleVec>(std::move(msg.payload));
        const auto src = static_cast<std::size_t>(msg.src);
        got[p][src] = true;
        if (block != block_for(src, p)) rank_ok[p] = 0;
      }
      for (auto& s : sends) co_await *s;
    } else {
      // Host/TCP: serialized pairwise exchanges.
      for (std::size_t r = 1; r < p_count; ++r) {
        const std::size_t dst = (p + r) % p_count;
        sim::Process send = t.send(dst, vec_bytes(elements),
                                   kAlltoallTagBase + r, block_for(p, dst));
        send.start(eng);
        proto::Message msg;
        co_await t.recv(kAlltoallTagBase + r, msg);
        co_await send;
        const auto block = std::any_cast<DoubleVec>(std::move(msg.payload));
        const auto src = static_cast<std::size_t>(msg.src);
        got[p][src] = true;
        if (block != block_for(src, p)) rank_ok[p] = 0;
      }
    }
  };

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    group.spawn_on(cluster.node_lp(p), rank_proc(p));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.payload = vec_bytes(elements);
  result.total = total;
  result.verified = true;
  for (std::uint8_t ok : rank_ok) {
    if (!ok) result.verified = false;
  }
  for (const auto& row : got) {
    for (bool b : row) {
      if (!b) result.verified = false;
    }
  }
  return result;
}

RankOrder hop_order(apps::SimCluster& cluster) {
  return std::make_shared<const std::vector<std::size_t>>(
      hop_ordered_ranks(cluster));
}

class HostRoutines final : public ICollectiveRoutines {
 public:
  CollectiveResult barrier(apps::SimCluster& cluster) const override {
    return run_barrier(cluster);
  }
  CollectiveResult broadcast(apps::SimCluster& cluster, std::size_t elements,
                             std::uint64_t seed) const override {
    return run_broadcast(cluster, elements, seed, nullptr);
  }
  CollectiveResult reduce(apps::SimCluster& cluster, std::size_t elements,
                          std::uint64_t seed) const override {
    return run_reduce(cluster, elements, seed, nullptr);
  }
  CollectiveResult allreduce(apps::SimCluster& cluster, std::size_t elements,
                             std::uint64_t seed) const override {
    return run_allreduce(cluster, elements, seed, nullptr);
  }
  CollectiveResult alltoall(apps::SimCluster& cluster, std::size_t elements,
                            std::uint64_t seed) const override {
    return run_alltoall(cluster, elements, seed);
  }
  CollectiveResult topology_broadcast(apps::SimCluster& cluster,
                                      std::size_t elements,
                                      std::uint64_t seed) const override {
    return run_broadcast(cluster, elements, seed, hop_order(cluster));
  }
  CollectiveResult topology_reduce(apps::SimCluster& cluster,
                                   std::size_t elements,
                                   std::uint64_t seed) const override {
    return run_reduce(cluster, elements, seed, hop_order(cluster));
  }
  CollectiveResult topology_allreduce(apps::SimCluster& cluster,
                                      std::size_t elements,
                                      std::uint64_t seed) const override {
    return run_allreduce(cluster, elements, seed, hop_order(cluster));
  }
};

}  // namespace

const ICollectiveRoutines& host_routines() {
  static const HostRoutines routines;
  return routines;
}

}  // namespace acc::coll
