#include "net/topology.hpp"

#include <cmath>
#include <stdexcept>

namespace acc::net {
namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Largest divisor of n that is <= cap (cap >= 1); always >= 1.
std::size_t largest_divisor_at_most(std::size_t n, std::size_t cap) {
  if (cap >= n) return n;
  for (std::size_t d = cap; d >= 2; --d) {
    if (n % d == 0) return d;
  }
  return 1;
}

void set_route(TopologyPlan& plan, int sw, std::size_t dst, std::size_t port) {
  plan.next_port[static_cast<std::size_t>(sw) * plan.hosts.size() + dst] =
      static_cast<std::uint16_t>(port);
}

TopologyPlan build_star(std::size_t hosts) {
  TopologyPlan plan;
  plan.switches.resize(1);
  plan.switches[0].level = 0;
  plan.switches[0].ports.resize(hosts);
  plan.hosts.resize(hosts);
  plan.next_port.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    plan.switches[0].ports[h].host = static_cast<int>(h);
    plan.hosts[h] = {0, h};
    plan.next_port[h] = static_cast<std::uint16_t>(h);
  }
  return plan;
}

// 2-level folded Clos: E edge switches of up to `per_edge` hosts each,
// U spines each linked to every edge.  Cross-edge route: up to spine
// (dst % U), down to dst's edge — one deterministic up-down path per
// destination.
TopologyPlan build_fat_tree2(const TopologyConfig& cfg, std::size_t hosts) {
  const std::size_t per_edge =
      cfg.hosts_per_edge != 0
          ? cfg.hosts_per_edge
          : static_cast<std::size_t>(
                std::ceil(std::sqrt(static_cast<double>(hosts))));
  const std::size_t edges = ceil_div(hosts, per_edge);
  const std::size_t spines =
      edges > 1 ? (cfg.spines != 0 ? cfg.spines : per_edge) : 0;

  TopologyPlan plan;
  plan.switches.resize(edges + spines);
  plan.hosts.resize(hosts);
  plan.next_port.resize(plan.switches.size() * hosts);

  for (std::size_t e = 0; e < edges; ++e) {
    auto& sw = plan.switches[e];
    sw.level = 0;
    const std::size_t first = e * per_edge;
    const std::size_t down = std::min(per_edge, hosts - first);
    sw.ports.resize(down + spines);
    for (std::size_t j = 0; j < down; ++j) {
      sw.ports[j].host = static_cast<int>(first + j);
      plan.hosts[first + j] = {static_cast<int>(e), j};
    }
    for (std::size_t u = 0; u < spines; ++u) {
      sw.ports[down + u].peer_switch = static_cast<int>(edges + u);
    }
    for (std::size_t d = 0; d < hosts; ++d) {
      if (d / per_edge == e) {
        set_route(plan, static_cast<int>(e), d, d - first);
      } else {
        set_route(plan, static_cast<int>(e), d, down + d % spines);
      }
    }
  }
  for (std::size_t u = 0; u < spines; ++u) {
    auto& sw = plan.switches[edges + u];
    sw.level = 1;
    sw.ports.resize(edges);
    for (std::size_t e = 0; e < edges; ++e) {
      sw.ports[e].peer_switch = static_cast<int>(e);
    }
    for (std::size_t d = 0; d < hosts; ++d) {
      set_route(plan, static_cast<int>(edges + u), d, d / per_edge);
    }
  }
  return plan;
}

// 3-level k-ary fat-tree (Leiserson/Al-Fares): k pods of k/2 edge and
// k/2 aggregation switches, (k/2)^2 cores, k^3/4 hosts.  Destination id
// deterministically selects the agg (dst % m) and the core column
// (dst % m again within that agg's core group), so each (src, dst) pair
// uses exactly one up-down path.
TopologyPlan build_fat_tree3(std::size_t hosts) {
  std::size_t k = 0;
  for (std::size_t cand = 2;; cand += 2) {
    const std::size_t n = cand * cand * cand / 4;
    if (n == hosts) {
      k = cand;
      break;
    }
    if (n > hosts) break;
  }
  if (k == 0) {
    throw std::invalid_argument(
        "3-level fat tree needs host count k^3/4 for an even k "
        "(2, 16, 54, 128, 250, 432, 686, 1024, ...)");
  }
  const std::size_t m = k / 2;  // switches per layer per pod; hosts per edge
  const std::size_t edge_base = 0;
  const std::size_t agg_base = k * m;
  const std::size_t core_base = 2 * k * m;

  TopologyPlan plan;
  plan.switches.resize(core_base + m * m);
  plan.hosts.resize(hosts);
  plan.next_port.resize(plan.switches.size() * hosts);

  const auto pod_of = [m](std::size_t host) { return host / (m * m); };
  const auto edge_of = [m](std::size_t host) { return (host / m) % m; };

  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t e = 0; e < m; ++e) {
      const int id = static_cast<int>(edge_base + p * m + e);
      auto& sw = plan.switches[id];
      sw.level = 0;
      sw.ports.resize(2 * m);
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t host = p * m * m + e * m + j;
        sw.ports[j].host = static_cast<int>(host);
        plan.hosts[host] = {id, j};
        sw.ports[m + j].peer_switch = static_cast<int>(agg_base + p * m + j);
      }
      for (std::size_t d = 0; d < hosts; ++d) {
        if (pod_of(d) == p && edge_of(d) == e) {
          set_route(plan, id, d, d % m);
        } else {
          set_route(plan, id, d, m + d % m);
        }
      }
    }
    for (std::size_t a = 0; a < m; ++a) {
      const int id = static_cast<int>(agg_base + p * m + a);
      auto& sw = plan.switches[id];
      sw.level = 1;
      sw.ports.resize(2 * m);
      for (std::size_t j = 0; j < m; ++j) {
        sw.ports[j].peer_switch = static_cast<int>(edge_base + p * m + j);
        sw.ports[m + j].peer_switch = static_cast<int>(core_base + a * m + j);
      }
      for (std::size_t d = 0; d < hosts; ++d) {
        if (pod_of(d) == p) {
          set_route(plan, id, d, edge_of(d));
        } else {
          set_route(plan, id, d, m + d % m);
        }
      }
    }
  }
  for (std::size_t g = 0; g < m * m; ++g) {
    const int id = static_cast<int>(core_base + g);
    auto& sw = plan.switches[id];
    sw.level = 2;
    sw.ports.resize(k);
    for (std::size_t p = 0; p < k; ++p) {
      sw.ports[p].peer_switch = static_cast<int>(agg_base + p * m + g / m);
    }
    for (std::size_t d = 0; d < hosts; ++d) {
      set_route(plan, id, d, pod_of(d));
    }
  }
  return plan;
}

struct TorusShape {
  std::vector<std::size_t> extent;  // per dimension, X first
};

TorusShape torus_shape(const TopologyConfig& cfg, std::size_t hosts) {
  if (cfg.dims != 2 && cfg.dims != 3) {
    throw std::invalid_argument("torus dims must be 2 or 3");
  }
  TorusShape shape;
  if (cfg.dim_x != 0 || cfg.dim_y != 0 || cfg.dim_z != 0) {
    shape.extent = {cfg.dim_x, cfg.dim_y};
    if (cfg.dims == 3) shape.extent.push_back(cfg.dim_z);
    std::size_t product = 1;
    for (std::size_t e : shape.extent) product *= e;
    if (product != hosts) {
      throw std::invalid_argument(
          "torus extents must multiply to the host count");
    }
    return shape;
  }
  if (cfg.dims == 2) {
    const auto cap = static_cast<std::size_t>(
        std::floor(std::sqrt(static_cast<double>(hosts))));
    const std::size_t x = largest_divisor_at_most(hosts, std::max<std::size_t>(cap, 1));
    shape.extent = {x, hosts / x};
  } else {
    const auto cap3 = static_cast<std::size_t>(
        std::floor(std::cbrt(static_cast<double>(hosts))));
    const std::size_t x = largest_divisor_at_most(hosts, std::max<std::size_t>(cap3, 1));
    const std::size_t rest = hosts / x;
    const auto cap2 = static_cast<std::size_t>(
        std::floor(std::sqrt(static_cast<double>(rest))));
    const std::size_t y =
        largest_divisor_at_most(rest, std::max<std::size_t>(cap2, 1));
    shape.extent = {x, y, rest / y};
  }
  return shape;
}

// One switch (and one host) per torus node.  Port 0 faces the host;
// each dimension with extent > 1 contributes a +direction and a
// -direction port.  Dimension-order routing: fully correct X, then Y,
// then Z, taking the minimal wrap (delta * 2 <= extent goes +, so the
// even-extent tie breaks toward +).
TopologyPlan build_torus(const TopologyConfig& cfg, std::size_t hosts) {
  const TorusShape shape = torus_shape(cfg, hosts);
  const std::size_t dims = shape.extent.size();

  // Identical port layout on every switch.
  std::vector<std::size_t> plus_port(dims, 0), minus_port(dims, 0);
  std::size_t ports = 1;  // port 0: host
  for (std::size_t d = 0; d < dims; ++d) {
    if (shape.extent[d] > 1) {
      plus_port[d] = ports++;
      minus_port[d] = ports++;
    }
  }

  std::vector<std::size_t> stride(dims, 1);
  for (std::size_t d = 1; d < dims; ++d) {
    stride[d] = stride[d - 1] * shape.extent[d - 1];
  }
  const auto coord = [&](std::size_t id, std::size_t d) {
    return (id / stride[d]) % shape.extent[d];
  };
  const auto shifted = [&](std::size_t id, std::size_t d, std::size_t to) {
    return id + (to - coord(id, d)) * stride[d];
  };

  TopologyPlan plan;
  plan.switches.resize(hosts);
  plan.hosts.resize(hosts);
  plan.next_port.resize(hosts * hosts);

  for (std::size_t s = 0; s < hosts; ++s) {
    auto& sw = plan.switches[s];
    sw.level = 0;
    sw.ports.resize(ports);
    sw.ports[0].host = static_cast<int>(s);
    plan.hosts[s] = {static_cast<int>(s), 0};
    for (std::size_t d = 0; d < dims; ++d) {
      const std::size_t ext = shape.extent[d];
      if (ext <= 1) continue;
      const std::size_t c = coord(s, d);
      sw.ports[plus_port[d]].peer_switch =
          static_cast<int>(shifted(s, d, (c + 1) % ext));
      sw.ports[minus_port[d]].peer_switch =
          static_cast<int>(shifted(s, d, (c + ext - 1) % ext));
    }
    for (std::size_t dst = 0; dst < hosts; ++dst) {
      if (dst == s) {
        set_route(plan, static_cast<int>(s), dst, 0);
        continue;
      }
      for (std::size_t d = 0; d < dims; ++d) {
        const std::size_t ext = shape.extent[d];
        const std::size_t cur = coord(s, d);
        const std::size_t want = coord(dst, d);
        if (cur == want) continue;
        const std::size_t delta = (want + ext - cur) % ext;
        set_route(plan, static_cast<int>(s), dst,
                  delta * 2 <= ext ? plus_port[d] : minus_port[d]);
        break;
      }
    }
  }
  return plan;
}

}  // namespace

std::string describe_topology(const TopologyConfig& cfg, std::size_t hosts) {
  switch (cfg.kind) {
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kFatTree: {
      if (cfg.levels == 3) {
        // Recover k from N = k^3/4 for the label.
        const auto k = static_cast<std::size_t>(std::llround(
            std::cbrt(4.0 * static_cast<double>(hosts))));
        return "fattree3[k=" + std::to_string(k) + "]";
      }
      const std::size_t per_edge =
          cfg.hosts_per_edge != 0
              ? cfg.hosts_per_edge
              : static_cast<std::size_t>(
                    std::ceil(std::sqrt(static_cast<double>(hosts))));
      const std::size_t edges = ceil_div(hosts, per_edge);
      const std::size_t spines =
          edges > 1 ? (cfg.spines != 0 ? cfg.spines : per_edge) : 0;
      return "fattree2[" + std::to_string(edges) + "x" +
             std::to_string(per_edge) + "+" + std::to_string(spines) + "]";
    }
    case TopologyKind::kTorus: {
      const TorusShape shape = torus_shape(cfg, hosts);
      std::string label = "torus" + std::to_string(shape.extent.size()) + "[";
      for (std::size_t d = 0; d < shape.extent.size(); ++d) {
        if (d != 0) label += "x";
        label += std::to_string(shape.extent[d]);
      }
      return label + "]";
    }
  }
  return "unknown";
}

TopologyPlan build_topology(const TopologyConfig& cfg, std::size_t hosts) {
  if (hosts == 0) throw std::invalid_argument("topology needs >= 1 host");
  switch (cfg.kind) {
    case TopologyKind::kStar:
      return build_star(hosts);
    case TopologyKind::kFatTree:
      if (cfg.levels == 2) return build_fat_tree2(cfg, hosts);
      if (cfg.levels == 3) return build_fat_tree3(hosts);
      throw std::invalid_argument("fat tree levels must be 2 or 3");
    case TopologyKind::kTorus:
      return build_torus(cfg, hosts);
  }
  throw std::invalid_argument("unknown topology kind");
}

}  // namespace acc::net
