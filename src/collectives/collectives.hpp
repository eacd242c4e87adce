// Collective operations — the paper's named future-work target: "the
// potential to accelerate functions ranging from collective operations
// to MPI derived data types" (Section 8), enabled by the INIC's
// protocol-processor mode (Section 2: "offering more features (such as
// collective operations)").
//
// Every collective exists in two implementations:
//
//   * Host/TCP — the textbook MPI algorithms on the standard cluster:
//     dissemination barrier, binomial-tree broadcast and reduce,
//     reduce+broadcast allreduce, pairwise all-to-all.  Each tree hop
//     pays the full TCP + interrupt receive path, and every combine
//     costs host CPU time per element.
//
//   * INIC — the same logical trees run card-to-card: control messages
//     never interrupt the host, and reduction arithmetic happens in the
//     FPGA datapath as the operands stream through ("processing data as
//     it passes through the device at zero cost"), so a reduce costs
//     wire time only.
//
// All collectives move real data; results are verified against serial
// references in the tests.
//
// Orthogonally to the interconnect, apps::ClusterOptions::collective_backend
// picks who drives the collective.  Both drivers walk one binomial tree
// (collectives.cpp) and send through SimCluster::transfer, so the
// degraded TCP fallback covers both.  The Host backend runs the
// send/recv loops above on the host ranks.  The Nic backend walks the
// tree entirely on the INIC cards via trigger primitives
// (inic/collective.hpp).  The free functions below branch on that option
// themselves.  See docs/COLLECTIVES.md.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/cluster.hpp"
#include "common/units.hpp"

namespace acc::coll {

/// Timing and verification outcome of one collective run.
struct CollectiveResult {
  std::size_t processors = 0;
  apps::Interconnect interconnect{};
  Bytes payload = Bytes::zero();
  /// Time from the first rank entering to the last rank leaving.
  Time total = Time::zero();
  bool verified = false;
  /// Final per-physical-node payloads (data-bearing collectives only;
  /// reduce leaves non-root entries empty).  Lets tests compare backends
  /// element-for-element on top of the built-in verification.
  std::vector<std::vector<double>> data;
};

/// Barrier: no data, pure synchronization (host ranks: dissemination,
/// ceil(log2 P) rounds; cards: up and down the tree).  Verification
/// checks the barrier property: no rank leaves before every rank has
/// entered.
CollectiveResult barrier(apps::SimCluster& cluster);

/// Personalized all-to-all of `elements` doubles per pair.  Host path:
/// serialized pairwise exchanges (MPI style); INIC path: concurrent
/// credit-windowed streams.
CollectiveResult alltoall(apps::SimCluster& cluster, std::size_t elements,
                          std::uint64_t seed = 4);

// ---------------------------------------------------------------------
// Tree collectives.
//
// One binomial tree, rooted at rank 0, laid over the ranks ordered by
// fabric hop distance from the root (ties broken by node id — fully
// deterministic).  On a multi-hop fabric (fat tree, torus — see
// net/topology.hpp) early tree edges therefore connect topologically
// close nodes and the deep-path hops carry the smallest subtrees.  On a
// star the order is the identity.  Both backends walk this tree.
// ---------------------------------------------------------------------

/// Rank permutation the tree collectives use: position i holds the
/// physical node acting as logical rank i (root first).
std::vector<std::size_t> hop_ordered_ranks(apps::SimCluster& cluster,
                                           std::size_t root = 0);

/// Broadcast `elements` doubles from rank 0.
CollectiveResult topology_broadcast(apps::SimCluster& cluster,
                                    std::size_t elements,
                                    std::uint64_t seed = 1);
/// Elementwise-sum reduce of `elements` doubles to rank 0.  On the host
/// path each combine charges CPU time per element; on the INIC the
/// combine rides the stream for free.
CollectiveResult topology_reduce(apps::SimCluster& cluster,
                                 std::size_t elements, std::uint64_t seed = 2);
/// Allreduce = reduce to rank 0 + broadcast.
CollectiveResult topology_allreduce(apps::SimCluster& cluster,
                                    std::size_t elements,
                                    std::uint64_t seed = 3);

/// Host CPU cost of combining `elements` doubles (one flop each plus a
/// memory pass), used by the host reduce path and exposed for tests.
Time host_combine_time(apps::SimCluster& cluster, std::size_t node,
                       std::size_t elements);

}  // namespace acc::coll
