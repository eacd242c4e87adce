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
//   * every interior link becomes an entry in the cross-LP link
//     registry, and the lookahead is the minimum latency over those
//     links — frames need at least that long to travel between LPs, so
//     events less than one lookahead apart on different LPs are
//     causally independent (Chandy–Misra).
//
// A star topology has one switch, hence one LP and no cross-LP links:
// the partition degenerates to serial execution, which is exactly the
// conservative bound for a fabric with no exploitable distance.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace acc::net {

/// One interior (switch-to-switch) link crossing two LPs, registered
/// with its one-way latency so the partition can derive the lookahead.
struct CrossLpLink {
  std::size_t src_lp = 0;
  std::size_t dst_lp = 0;
  Time latency = Time::zero();
};

struct LpPartition {
  std::size_t lp_count = 0;
  /// LP owning each switch (switch index -> LP id).  Identity today —
  /// one LP per switch — kept explicit so a coarser grouping (e.g. one
  /// LP per pod) only touches this map.
  std::vector<std::size_t> lp_of_switch;
  /// LP owning each host (host id -> LP id of its edge switch).
  std::vector<std::size_t> lp_of_host;
  /// Every directed interior link that crosses LPs, with its latency.
  std::vector<CrossLpLink> cross_links;
  /// min over cross_links of latency; Time::zero() when the partition
  /// has a single LP (no conservative constraint to respect).
  Time lookahead = Time::zero();
};

/// The one-LP partition: every switch and host on LP 0, no cross-LP
/// link, zero lookahead.  This is how a fabric runs serially.
LpPartition single_lp_partition(const TopologyPlan& plan);

/// Derives the LP partition from a materialized topology.  `link_latency`
/// is the uniform one-way interior-link latency the fabric is configured
/// with (NetworkConfig::link_latency + the per-hop switch_latency floor
/// is the true cross-LP delay; callers pass the conservative minimum they
/// will honour in post() delays).
LpPartition build_lp_partition(const TopologyPlan& plan, Time link_latency);

/// Per-link latency callback: the one-way delay a frame leaving switch
/// `src_sw` takes to reach switch `dst_sw` (link + any per-hop floor the
/// fabric adds before the frame becomes visible to the peer).
using LinkLatencyFn = std::function<Time(int src_sw, int dst_sw)>;

/// Mixed-latency overload: stamps each directed cross-LP link with the
/// latency `latency_of(src_sw, dst_sw)` reports for it, and sets the
/// lookahead to the TRUE MINIMUM over those links.  A scalar latency on a
/// heterogeneous fabric would silently overstate the lookahead and let
/// the conservative windows admit causally-dependent events — this is the
/// sound path.  Every reported latency must be positive; a zero or
/// negative value (which would make the minimum lookahead unusable for
/// conservative progress) is rejected with std::invalid_argument naming
/// the offending link.
LpPartition build_lp_partition(const TopologyPlan& plan,
                               const LinkLatencyFn& latency_of);

}  // namespace acc::net
