#include "net/lp_map.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace acc::net {

LpPartition single_lp_partition(const TopologyPlan& plan) {
  LpPartition part;
  part.lp_count = 1;
  part.lp_of_switch.assign(plan.switches.size(), 0);
  part.lp_of_host.assign(plan.hosts.size(), 0);
  return part;
}

LpPartition build_lp_partition(const TopologyPlan& plan,
                               const LinkLatencyFn& latency_of) {
  if (plan.switches.empty()) {
    throw std::invalid_argument("build_lp_partition: empty topology plan");
  }
  LpPartition part;
  part.lp_count = plan.switches.size();
  part.lp_of_switch.resize(plan.switches.size());
  for (std::size_t s = 0; s < plan.switches.size(); ++s) {
    part.lp_of_switch[s] = s;
  }
  part.lp_of_host.resize(plan.hosts.size());
  for (std::size_t h = 0; h < plan.hosts.size(); ++h) {
    part.lp_of_host[h] =
        part.lp_of_switch[static_cast<std::size_t>(plan.hosts[h].sw)];
  }
  // Register every directed interior link whose endpoints live in
  // different LPs, each with ITS OWN latency.  With the identity
  // switch->LP map that is every interior link; a coarser grouping would
  // drop the intra-group ones.  The lookahead is the true minimum over
  // the registered links — never a scalar stamped on a mixed fabric,
  // which would overstate it and let the conservative windows admit
  // causally-dependent events.
  for (std::size_t s = 0; s < plan.switches.size(); ++s) {
    for (const TopologyPlan::Port& p : plan.switches[s].ports) {
      if (p.peer_switch < 0) continue;
      const std::size_t src_lp = part.lp_of_switch[s];
      const std::size_t dst_lp =
          part.lp_of_switch[static_cast<std::size_t>(p.peer_switch)];
      if (src_lp == dst_lp) continue;
      const Time lat = latency_of(static_cast<int>(s), p.peer_switch);
      if (lat <= Time::zero()) {
        throw std::invalid_argument(
            "build_lp_partition: link sw" + std::to_string(s) + " -> sw" +
            std::to_string(p.peer_switch) + " reports a non-positive " +
            "latency (" + std::to_string(lat.as_nanos()) +
            " ns); the minimum cross-LP latency is the lookahead and must "
            "be positive for conservative progress");
      }
      part.cross_links.push_back(CrossLpLink{src_lp, dst_lp, lat});
    }
  }
  if (!part.cross_links.empty()) {
    part.lookahead = part.cross_links.front().latency;
    for (const CrossLpLink& l : part.cross_links) {
      part.lookahead = std::min(part.lookahead, l.latency);
    }
  }
  return part;
}

LpPartition build_lp_partition(const TopologyPlan& plan, Time link_latency) {
  if (link_latency <= Time::zero()) {
    throw std::invalid_argument(
        "build_lp_partition: interior link latency must be positive (it is "
        "the conservative lookahead)");
  }
  return build_lp_partition(
      plan, [link_latency](int, int) { return link_latency; });
}

}  // namespace acc::net
