// Collective operations: one binomial tree per call, walked either by the
// host ranks or by the INIC cards.
//
// Both backends lay the same tree (build_tree) over the hop-ordered ranks
// and send through SimCluster::transfer, so the degraded TCP fallback
// covers them alike.  The Host backend runs the send/recv loops on the
// host ranks: combines charge host CPU time on the TCP interconnects and
// ride the INIC stream for free on the INIC ones.  The Nic backend only arms each
// card's triggers (inic::CollectiveEngine) and awaits completion; every
// forward and combine runs on the cards.  The golden trace digests pin
// both backends event for event.
#include "collectives/collectives.hpp"

#include <algorithm>
#include <any>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "inic/collective.hpp"
#include "proto/tagged_inbox.hpp"
#include "sim/process.hpp"

namespace acc::coll {

namespace {

using DoubleVec = std::vector<double>;

// Host-backend message tags (the cards tag their own frames).
constexpr std::uint64_t kBarrierTagBase = 0x0100'0000;
constexpr std::uint64_t kBcastTag = 0x0200'0000;
constexpr std::uint64_t kReduceTag = 0x0300'0000;
constexpr std::uint64_t kAllreduceBcastTag = 0x0400'0000;
constexpr std::uint64_t kAlltoallTagBase = 0x0500'0000;

using inic::TreeOp;

Bytes vec_bytes(std::size_t elements) {
  return Bytes(elements * sizeof(double));
}

DoubleVec make_vector(std::size_t elements, std::uint64_t seed) {
  Rng rng(seed);
  DoubleVec v(elements);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

bool on_nic(apps::SimCluster& cluster) {
  return cluster.options().collective_backend == apps::CollectiveBackend::kNic;
}

/// Binomial tree over a rank order: order[l] is the physical node acting
/// as logical rank l; role[l] holds its physical parent/children.
/// Logical rank l's parent is l - lowbit(l); its children are l + m for
/// every power of two m below lowbit(l) (below p at the root).
struct Tree {
  std::vector<std::size_t> order;
  std::vector<inic::TreeRole> role;
};

Tree build_tree(std::vector<std::size_t> order) {
  Tree tree;
  tree.order = std::move(order);
  const std::size_t p_count = tree.order.size();
  tree.role.resize(p_count);
  for (std::size_t l = 0; l < p_count; ++l) {
    inic::TreeRole& role = tree.role[l];
    const std::size_t lowbit = l & (~l + 1);
    if (l > 0) role.parent = static_cast<int>(tree.order[l - lowbit]);
    // Full ancestor chain (parent, grandparent, ..., root): each step
    // clears the lowest set bit.  Powers the cards' mid-collective tree
    // repair — a send whose parent is unreachable re-targets the next
    // ancestor.
    for (std::size_t a = l; a > 0;) {
      a -= a & (~a + 1);
      role.ancestors.push_back(static_cast<int>(tree.order[a]));
    }
    const std::size_t limit = l == 0 ? p_count : lowbit;
    for (std::size_t m = 1; m < limit; m <<= 1) {
      if (l + m < p_count) {
        role.children.push_back(static_cast<int>(tree.order[l + m]));
      }
    }
  }
  return tree;
}

CollectiveResult make_result(apps::SimCluster& cluster, Bytes payload,
                             Time total) {
  CollectiveResult result;
  result.processors = cluster.size();
  result.interconnect = cluster.interconnect();
  result.payload = payload;
  result.total = total;
  return result;
}

// ---------------------------------------------------------------------
// Barrier: host ranks run a dissemination barrier (ceil(log2 P) rounds);
// the cards walk the tree up and back down.
// ---------------------------------------------------------------------

sim::Process barrier_rank(apps::SimCluster& cluster, std::size_t me,
                          const inic::TreeRole& role, std::uint64_t op_id,
                          Time enter_delay, Time& entered, Time& left) {
  sim::Engine& eng = cluster.node_engine(me);
  co_await sim::Delay{eng, enter_delay};
  entered = eng.now();
  if (on_nic(cluster)) {
    DoubleVec none;
    co_await cluster.collective_engine(me).run(TreeOp::kBarrier, role, op_id,
                                               none);
  } else {
    proto::TaggedInbox inbox(cluster.inbox(me));
    const std::size_t p_count = cluster.size();
    for (std::size_t k = 0, step = 1; step < p_count; ++k, step <<= 1) {
      const auto dst = static_cast<int>((me + step) % p_count);
      sim::Process send = cluster.transfer(static_cast<int>(me), dst,
                                           Bytes(8), kBarrierTagBase + k);
      send.start(eng);
      proto::Message msg;
      co_await inbox.recv(kBarrierTagBase + k, msg);
      co_await send;
    }
  }
  left = eng.now();
}

// ---------------------------------------------------------------------
// Broadcast / reduce / allreduce over the tree.
// ---------------------------------------------------------------------

/// One host rank.  Reduce: receive one partial per child and combine,
/// then send the sum to the parent.  Broadcast: receive from the parent,
/// then forward to the children, largest subtree first.  Allreduce is
/// reduce followed by broadcast under its own tag.
sim::Process host_tree_rank(apps::SimCluster& cluster, std::size_t me,
                            const inic::TreeRole& role, TreeOp op,
                            DoubleVec& data) {
  proto::TaggedInbox inbox(cluster.inbox(me));
  const auto src = static_cast<int>(me);
  if (op != TreeOp::kBroadcast) {
    for (std::size_t c = 0; c < role.children.size(); ++c) {
      proto::Message msg;
      co_await inbox.recv(kReduceTag, msg);
      const auto partial = std::any_cast<DoubleVec>(std::move(msg.payload));
      // On the INIC the combine rides the stream and is charged nowhere.
      if (!apps::is_inic(cluster.interconnect())) {
        co_await cluster.node(me).cpu().compute(
            host_combine_time(cluster, me, data.size()));
      }
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += partial[i];
    }
    if (role.parent >= 0) {
      co_await cluster.transfer(src, role.parent, vec_bytes(data.size()),
                                kReduceTag, std::move(data));
      data.clear();
    }
  }
  if (op != TreeOp::kReduce) {
    const std::uint64_t tag =
        op == TreeOp::kBroadcast ? kBcastTag : kAllreduceBcastTag;
    if (role.parent >= 0) {
      proto::Message msg;
      co_await inbox.recv(tag, msg);
      data = std::any_cast<DoubleVec>(std::move(msg.payload));
    }
    std::vector<sim::Process> sends;
    sends.reserve(role.children.size());
    for (auto child = role.children.rbegin(); child != role.children.rend();
         ++child) {
      sends.push_back(
          cluster.transfer(src, *child, vec_bytes(data.size()), tag, data));
      sends.back().start(cluster.node_engine(me));
    }
    for (auto& s : sends) co_await s;
  }
}

CollectiveResult run_tree(apps::SimCluster& cluster, TreeOp op,
                          std::size_t elements, std::uint64_t seed) {
  const std::size_t p_count = cluster.size();
  const bool nic = on_nic(cluster);
  const Tree tree = build_tree(hop_ordered_ranks(cluster));
  const std::uint64_t op_id = nic ? cluster.next_collective_op() : 0;
  std::vector<DoubleVec> data(p_count);  // indexed by physical node
  // What every checked rank must hold at the end: the root's vector for
  // broadcast, the elementwise sum of the contributions otherwise.
  DoubleVec expected;
  if (op == TreeOp::kBroadcast) {
    expected = make_vector(elements, seed);
    data[tree.order[0]] = expected;
  } else {
    // Contributions are seeded by logical rank, so both backends sum the
    // same vectors at every rank order.
    expected.assign(elements, 0.0);
    for (std::size_t l = 0; l < p_count; ++l) {
      DoubleVec& v = data[tree.order[l]];
      v = make_vector(elements, seed + l);
      for (std::size_t i = 0; i < elements; ++i) expected[i] += v[i];
    }
  }

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t l = 0; l < p_count; ++l) {
    const std::size_t phys = tree.order[l];
    group.spawn_on(
        cluster.node_lp(phys),
        nic ? cluster.collective_engine(phys).run(op, tree.role[l], op_id,
                                                  data[phys])
            : host_tree_rank(cluster, phys, tree.role[l], op, data[phys]));
  }
  CollectiveResult result =
      make_result(cluster, vec_bytes(elements), group.join());

  // Broadcast only copies the root vector, so it must match bitwise; sums
  // may associate differently per backend.
  const double tol = op == TreeOp::kBroadcast ? 0.0 : 1e-9;
  auto holds_expected = [&](const DoubleVec& v) {
    if (v.size() != elements) return false;
    for (std::size_t i = 0; i < elements; ++i) {
      if (std::abs(v[i] - expected[i]) > tol) return false;
    }
    return true;
  };
  // Reduce leaves the result at the root only.
  result.verified = op == TreeOp::kReduce
                        ? holds_expected(data[tree.order[0]])
                        : std::all_of(data.begin(), data.end(), holds_expected);
  result.data = std::move(data);
  return result;
}

}  // namespace

CollectiveResult barrier(apps::SimCluster& cluster) {
  const std::size_t p_count = cluster.size();
  const bool nic = on_nic(cluster);
  // Ranks enter in logical-rank order: hop order on the cards, whose tree
  // it is; node-id order on the hosts, whose dissemination rounds pair
  // ranks by node id.
  std::vector<std::size_t> order(p_count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (nic) order = hop_ordered_ranks(cluster);
  const Tree tree = build_tree(std::move(order));
  const std::uint64_t op_id = nic ? cluster.next_collective_op() : 0;
  std::vector<Time> entered(p_count), left(p_count);

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t l = 0; l < p_count; ++l) {
    // Staggered entry makes the barrier property non-trivial: the last
    // entrant arrives (P-1) * 50 us after the first.
    group.spawn_on(cluster.node_lp(tree.order[l]),
                   barrier_rank(cluster, tree.order[l], tree.role[l], op_id,
                                Time::micros(50.0 * static_cast<double>(l)),
                                entered[l], left[l]));
  }
  CollectiveResult result = make_result(cluster, Bytes::zero(), group.join());
  // Barrier property: nobody leaves before everybody has entered.
  const Time last_entry = *std::max_element(entered.begin(), entered.end());
  const Time first_exit = *std::min_element(left.begin(), left.end());
  result.verified = p_count == 1 || first_exit >= last_entry;
  return result;
}

// No tree to walk, so both backends drive all-to-all from the hosts.
CollectiveResult alltoall(apps::SimCluster& cluster, std::size_t elements,
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
    sim::Engine& eng = cluster.node_engine(p);
    proto::TaggedInbox inbox(cluster.inbox(p));
    const auto me = static_cast<int>(p);
    got[p][p] = true;  // own block stays local
    auto take = [&](proto::Message& msg) {
      const auto block = std::any_cast<DoubleVec>(std::move(msg.payload));
      const auto src = static_cast<std::size_t>(msg.src);
      got[p][src] = true;
      if (block != block_for(src, p)) rank_ok[p] = 0;
    };
    if (apps::is_inic(cluster.interconnect())) {
      // INIC: all streams go out concurrently under credit control.
      std::vector<sim::Process> sends;
      sends.reserve(p_count);
      for (std::size_t r = 1; r < p_count; ++r) {
        const std::size_t dst = (p + r) % p_count;
        sends.push_back(cluster.transfer(me, static_cast<int>(dst),
                                         vec_bytes(elements),
                                         kAlltoallTagBase + r,
                                         block_for(p, dst)));
        sends.back().start(eng);
      }
      for (std::size_t r = 1; r < p_count; ++r) {
        proto::Message msg;
        co_await inbox.recv(kAlltoallTagBase + r, msg);
        take(msg);
      }
      for (auto& s : sends) co_await s;
    } else {
      // Host/TCP: serialized pairwise exchanges.
      for (std::size_t r = 1; r < p_count; ++r) {
        const std::size_t dst = (p + r) % p_count;
        sim::Process send = cluster.transfer(
            me, static_cast<int>(dst), vec_bytes(elements),
            kAlltoallTagBase + r, block_for(p, dst));
        send.start(eng);
        proto::Message msg;
        co_await inbox.recv(kAlltoallTagBase + r, msg);
        co_await send;
        take(msg);
      }
    }
  };

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    group.spawn_on(cluster.node_lp(p), rank_proc(p));
  }
  CollectiveResult result =
      make_result(cluster, vec_bytes(elements), group.join());
  result.verified =
      std::all_of(rank_ok.begin(), rank_ok.end(),
                  [](std::uint8_t ok) { return ok != 0; }) &&
      std::all_of(got.begin(), got.end(), [](const std::vector<bool>& row) {
        return std::all_of(row.begin(), row.end(), [](bool b) { return b; });
      });
  return result;
}

CollectiveResult topology_broadcast(apps::SimCluster& cluster,
                                    std::size_t elements, std::uint64_t seed) {
  return run_tree(cluster, TreeOp::kBroadcast, elements, seed);
}

CollectiveResult topology_reduce(apps::SimCluster& cluster,
                                 std::size_t elements, std::uint64_t seed) {
  return run_tree(cluster, TreeOp::kReduce, elements, seed);
}

CollectiveResult topology_allreduce(apps::SimCluster& cluster,
                                    std::size_t elements, std::uint64_t seed) {
  return run_tree(cluster, TreeOp::kAllreduce, elements, seed);
}

std::vector<std::size_t> hop_ordered_ranks(apps::SimCluster& cluster,
                                           std::size_t root) {
  net::Network& net = cluster.network();
  std::vector<std::size_t> order(cluster.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::swap(order[0], order[root]);
  // Stable sort of the non-root tail keeps node-id order within equal
  // hop counts — the permutation is a pure function of the topology.
  std::stable_sort(order.begin() + 1, order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return net.hop_count(static_cast<int>(root),
                                          static_cast<int>(a)) <
                            net.hop_count(static_cast<int>(root),
                                          static_cast<int>(b));
                   });
  return order;
}

Time host_combine_time(apps::SimCluster& cluster, std::size_t node,
                       std::size_t elements) {
  hw::Cpu& cpu = cluster.node(node).cpu();
  // One add per element plus streaming both operands through the
  // hierarchy (16 bytes per element, working set of the two vectors).
  return cpu.flops_time(static_cast<double>(elements)) +
         cpu.memory().pass_time(Bytes(16 * elements), Bytes(16 * elements));
}

}  // namespace acc::coll
