#include "net/lp_map.hpp"

#include <stdexcept>

namespace acc::net {

LpPartition single_lp_partition(const TopologyPlan& plan) {
  LpPartition part;
  part.lp_count = 1;
  part.lp_of_switch.assign(plan.switches.size(), 0);
  part.lp_of_host.assign(plan.hosts.size(), 0);
  return part;
}

LpPartition build_lp_partition(const TopologyPlan& plan, Time link_latency) {
  if (plan.switches.empty()) {
    throw std::invalid_argument("build_lp_partition: empty topology plan");
  }
  if (link_latency <= Time::zero()) {
    throw std::invalid_argument(
        "build_lp_partition: interior link latency must be positive (it is "
        "the conservative lookahead)");
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
  // With one LP per switch every interior link crosses LPs, and each
  // carries the same latency, so that latency is the minimum.
  if (part.lp_count > 1) part.lookahead = link_latency;
  return part;
}

}  // namespace acc::net
