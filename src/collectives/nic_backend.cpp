// NIC backend: collectives as card-resident state machines.
//
// Each rank's host process only (a) arms its card's triggers by calling
// into inic::CollectiveEngine and (b) awaits the completion event (plus
// the final card-to-host DMA for data-bearing ops).  Every tree hop —
// token forwarding, payload forwarding, elementwise combine — runs on
// the cards, so no host CPU time is charged and no interrupt fires
// anywhere in the collective.
//
// The trees are always laid over hop_ordered_ranks(): on a star that is
// the identity permutation, so the plain and topology_* entry points
// coincide by construction (unlike the host backend, which keeps the
// historical id-ordered plain variants).  alltoall has no tree to walk
// and simply delegates to the host routines' concurrent INIC streams.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "collectives/backend.hpp"
#include "common/rng.hpp"
#include "inic/collective.hpp"
#include "sim/process.hpp"

namespace acc::coll {

namespace {

using DoubleVec = std::vector<double>;

Bytes vec_bytes(std::size_t elements) {
  return Bytes(elements * sizeof(double));
}

DoubleVec make_vector(std::size_t elements, std::uint64_t seed) {
  Rng rng(seed);
  DoubleVec v(elements);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Hop-ordered binomial tree: order[l] is the physical node acting as
/// logical rank l; role[l] holds its physical parent/children.  Logical
/// rank l's parent is l - lowbit(l); its children are l + m for every
/// power of two m below lowbit(l) (below p at the root).
struct NicTree {
  std::vector<std::size_t> order;
  std::vector<inic::TreeRole> role;
};

NicTree build_tree(apps::SimCluster& cluster) {
  NicTree tree;
  tree.order = hop_ordered_ranks(cluster);
  const std::size_t p_count = tree.order.size();
  tree.role.resize(p_count);
  for (std::size_t l = 0; l < p_count; ++l) {
    inic::TreeRole& role = tree.role[l];
    const std::size_t lowbit = l & (~l + 1);
    if (l > 0) role.parent = static_cast<int>(tree.order[l - lowbit]);
    // Full ancestor chain (parent, grandparent, ..., root): each step
    // clears the lowest set bit.  Powers mid-collective tree repair —
    // a send whose parent is unreachable re-targets the next ancestor.
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

sim::Process barrier_rank(apps::SimCluster& cluster, std::size_t phys,
                          inic::TreeRole role, std::uint64_t op_id,
                          Time enter_delay, Time& entered, Time& left) {
  sim::Engine& eng = cluster.node_engine(phys);
  co_await sim::Delay{eng, enter_delay};
  entered = eng.now();
  co_await cluster.collective_engine(phys).barrier(std::move(role), op_id);
  left = eng.now();
}

sim::Process data_rank(apps::SimCluster& cluster, std::size_t phys,
                       inic::TreeRole role, std::uint64_t op_id,
                       DoubleVec& data,
                       sim::Process (inic::CollectiveEngine::*op)(
                           inic::TreeRole, std::uint64_t, DoubleVec&)) {
  co_await (cluster.collective_engine(phys).*op)(std::move(role), op_id,
                                                 data);
}

CollectiveResult nic_barrier(apps::SimCluster& cluster) {
  const std::size_t p_count = cluster.size();
  NicTree tree = build_tree(cluster);
  const std::uint64_t op_id = cluster.next_collective_op();
  std::vector<Time> entered(p_count), left(p_count);

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t l = 0; l < p_count; ++l) {
    // Same staggered entry as the host barrier: the release property
    // must hold even when the last entrant is (P-1) * 50 us late.
    group.spawn_on(cluster.node_lp(tree.order[l]),
                   barrier_rank(cluster, tree.order[l], tree.role[l], op_id,
                                Time::micros(50.0 * static_cast<double>(l)),
                                entered[l], left[l]));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.total = total;
  const Time last_entry = *std::max_element(entered.begin(), entered.end());
  const Time first_exit = *std::min_element(left.begin(), left.end());
  result.verified = p_count == 1 || first_exit >= last_entry;
  return result;
}

CollectiveResult nic_broadcast(apps::SimCluster& cluster,
                               std::size_t elements, std::uint64_t seed) {
  const std::size_t p_count = cluster.size();
  NicTree tree = build_tree(cluster);
  const std::uint64_t op_id = cluster.next_collective_op();
  const DoubleVec root_data = make_vector(elements, seed);
  std::vector<DoubleVec> data(p_count);  // indexed by physical node
  data[tree.order[0]] = root_data;

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t l = 0; l < p_count; ++l) {
    const std::size_t phys = tree.order[l];
    group.spawn_on(cluster.node_lp(phys),
                   data_rank(cluster, phys, tree.role[l], op_id, data[phys],
                             &inic::CollectiveEngine::broadcast));
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

CollectiveResult nic_reduce_or_allreduce(
    apps::SimCluster& cluster, std::size_t elements, std::uint64_t seed,
    sim::Process (inic::CollectiveEngine::*op)(inic::TreeRole,
                                               std::uint64_t, DoubleVec&),
    bool all_ranks_hold_result) {
  const std::size_t p_count = cluster.size();
  NicTree tree = build_tree(cluster);
  const std::uint64_t op_id = cluster.next_collective_op();
  std::vector<DoubleVec> data(p_count);
  DoubleVec expected(elements, 0.0);
  // Contributions are seeded by *logical* rank, exactly like the host
  // backend's topology variants, so both backends sum the same vectors.
  for (std::size_t l = 0; l < p_count; ++l) {
    data[tree.order[l]] = make_vector(elements, seed + l);
    for (std::size_t i = 0; i < elements; ++i) {
      expected[i] += data[tree.order[l]][i];
    }
  }

  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t l = 0; l < p_count; ++l) {
    const std::size_t phys = tree.order[l];
    group.spawn_on(
        cluster.node_lp(phys),
        data_rank(cluster, phys, tree.role[l], op_id, data[phys], op));
  }
  const Time total = group.join();

  CollectiveResult result;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.payload = vec_bytes(elements);
  result.total = total;
  result.verified = true;
  auto check = [&](const DoubleVec& v) {
    if (v.size() != elements) return false;
    for (std::size_t i = 0; i < elements; ++i) {
      if (std::abs(v[i] - expected[i]) > 1e-9) return false;
    }
    return true;
  };
  if (all_ranks_hold_result) {
    for (std::size_t p = 0; p < p_count; ++p) {
      if (!check(data[p])) result.verified = false;
    }
  } else {
    result.verified = check(data[tree.order[0]]);
  }
  result.data = std::move(data);
  return result;
}

class NicRoutines final : public ICollectiveRoutines {
 public:
  CollectiveResult barrier(apps::SimCluster& cluster) const override {
    return nic_barrier(cluster);
  }
  CollectiveResult broadcast(apps::SimCluster& cluster, std::size_t elements,
                             std::uint64_t seed) const override {
    return nic_broadcast(cluster, elements, seed);
  }
  CollectiveResult reduce(apps::SimCluster& cluster, std::size_t elements,
                          std::uint64_t seed) const override {
    return nic_reduce_or_allreduce(cluster, elements, seed,
                                   &inic::CollectiveEngine::reduce,
                                   /*all_ranks_hold_result=*/false);
  }
  CollectiveResult allreduce(apps::SimCluster& cluster, std::size_t elements,
                             std::uint64_t seed) const override {
    return nic_reduce_or_allreduce(cluster, elements, seed,
                                   &inic::CollectiveEngine::allreduce,
                                   /*all_ranks_hold_result=*/true);
  }
  CollectiveResult alltoall(apps::SimCluster& cluster, std::size_t elements,
                            std::uint64_t seed) const override {
    // No spanning tree to offload; the host routines already drive all
    // P*(P-1) streams concurrently through the cards.
    return host_routines().alltoall(cluster, elements, seed);
  }
  CollectiveResult topology_broadcast(apps::SimCluster& cluster,
                                      std::size_t elements,
                                      std::uint64_t seed) const override {
    return nic_broadcast(cluster, elements, seed);
  }
  CollectiveResult topology_reduce(apps::SimCluster& cluster,
                                   std::size_t elements,
                                   std::uint64_t seed) const override {
    return reduce(cluster, elements, seed);
  }
  CollectiveResult topology_allreduce(apps::SimCluster& cluster,
                                      std::size_t elements,
                                      std::uint64_t seed) const override {
    return allreduce(cluster, elements, seed);
  }
};

}  // namespace

const ICollectiveRoutines& nic_routines() {
  static const NicRoutines routines;
  return routines;
}

}  // namespace acc::coll
