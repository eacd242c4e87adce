// Logical-process partitioning of a fabric topology for the parallel
// event engine (sim/parallel.hpp).
//
// The conservative scheduler needs two things from the network: a
// partition of the simulated objects into LPs that only interact through
// delayed messages, and the lookahead — the minimum latency any cross-LP
// interaction carries.  Both fall straight out of the TopologyPlan:
//
//   * every switch is its own LP (a switch's forwarding decisions touch
//     only its own port state);
//   * every host joins the LP of the edge switch it attaches to (host
//     NIC and edge switch exchange frames over a zero-conflict local
//     port, so splitting them would only shrink the lookahead to the
//     host link);
//   * every interior link therefore crosses LPs, and every one carries
//     the fabric's uniform interior latency, so that latency is the
//     lookahead — frames need at least that long to travel between LPs,
//     so events less than one lookahead apart on different LPs are
//     causally independent (Chandy–Misra).
//
// A star topology has one switch, hence one LP and no cross-LP links:
// the partition degenerates to serial execution, which is exactly the
// conservative bound for a fabric with no exploitable distance.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace acc::net {

struct LpPartition {
  std::size_t lp_count = 0;
  /// LP owning each switch (switch index -> LP id).  Identity today —
  /// one LP per switch — kept explicit so a coarser grouping (e.g. one
  /// LP per pod) only touches this map.
  std::vector<std::size_t> lp_of_switch;
  /// LP owning each host (host id -> LP id of its edge switch).
  std::vector<std::size_t> lp_of_host;
  /// The interior-link latency when the partition has more than one LP;
  /// Time::zero() when it has a single LP (no conservative constraint to
  /// respect).
  Time lookahead = Time::zero();
};

/// The one-LP partition: every switch and host on LP 0, zero lookahead.
/// This is how a fabric runs serially.
LpPartition single_lp_partition(const TopologyPlan& plan);

/// Derives the per-switch LP partition from a materialized topology.
/// `link_latency` is the uniform one-way delay a frame needs to become
/// visible at the peer switch (SimCluster passes
/// NetworkConfig::link_latency + switch_latency, exactly what
/// Fabric::forward_at() posts cross-LP hops with).  It must be positive:
/// it is the conservative lookahead, and a zero one admits no progress;
/// std::invalid_argument otherwise.
LpPartition build_lp_partition(const TopologyPlan& plan, Time link_latency);

}  // namespace acc::net
