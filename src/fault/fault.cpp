#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "apps/cluster.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace acc::fault {

namespace {

/// Every window edge is scheduled on engine() (LP 0) and mutates fabric
/// ports and cards of any node, so the plan needs the one-LP partition.
apps::SimCluster& require_one_lp(apps::SimCluster& cluster) {
  const std::size_t lps = cluster.partition().lp_count;
  if (lps > 1) {
    throw std::invalid_argument(
        "FaultInjector: the cluster runs on " + std::to_string(lps) +
        " LPs; fault windows mutate state across LPs and need a one-LP "
        "partition (engine_threads <= 1)");
  }
  return cluster;
}

}  // namespace

FaultInjector::FaultInjector(apps::SimCluster& cluster, FaultPlan plan)
    : cluster_(require_one_lp(cluster)),
      plan_(std::move(plan)),
      events_(cluster.engine().counters().get(trace::Category::kFault, -1,
                                              "fault/events")) {
  if (!plan_.card_reset.empty() && !apps::is_inic(cluster_.interconnect())) {
    throw std::invalid_argument(
        "FaultInjector: card-reset windows require an INIC interconnect");
  }
  const std::size_t n = cluster_.size();
  auto check_node = [n](int node, const char* what) {
    if (node < 0 || static_cast<std::size_t>(node) >= n) {
      throw std::out_of_range(std::string("FaultInjector: ") + what +
                              " window names node " + std::to_string(node));
    }
  };
  for (const auto& w : plan_.link_down) check_node(w.node, "link-down");
  for (const auto& w : plan_.port_degrade) check_node(w.node, "port-degrade");
  for (const auto& w : plan_.buffer_shrink) check_node(w.node, "buffer-shrink");
  for (const auto& w : plan_.card_reset) check_node(w.node, "card-reset");
  // Factor contracts are enforced here, at plan-arm time, so a bad plan
  // fails loudly before the run instead of mid-simulation when the
  // window opens.
  for (const auto& w : plan_.port_degrade) {
    if (!(w.rate_factor > 0.0) || w.rate_factor > 1.0) {
      throw std::invalid_argument(
          "FaultInjector: port-degrade rate_factor must be in (0, 1]");
    }
  }
  for (const auto& w : plan_.buffer_shrink) {
    if (!(w.buffer_factor >= 0.0) || w.buffer_factor > 1.0) {
      throw std::invalid_argument(
          "FaultInjector: buffer-shrink buffer_factor must be in [0, 1]");
    }
  }
  auto check_interior = [this](int a, int b, const char* what) {
    if (!cluster_.network().has_interior_link(a, b)) {
      throw std::invalid_argument(
          std::string("FaultInjector: ") + what + " names switches " +
          std::to_string(a) + " and " + std::to_string(b) +
          ", which share no fabric link");
    }
  };
  for (const auto& w : plan_.interior_link_down) {
    check_interior(w.switch_a, w.switch_b, "interior-link-down window");
  }
  for (const auto& w : plan_.interior_link_failed) {
    check_interior(w.switch_a, w.switch_b, "interior-link failure");
  }
  arm();
}

std::uint64_t FaultInjector::events_fired() const { return events_.value(); }

std::uint64_t FaultInjector::derived_seed(std::uint64_t index) const {
  // splitmix64 step over (seed + index * golden-gamma): independent,
  // deterministic streams per stochastic window.
  std::uint64_t z = plan_.seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void FaultInjector::fire(int node, const char* name, std::int64_t value) {
  sim::Engine& eng = cluster_.engine();
  events_.add(eng.now(), 1);
  eng.tracer().instant(trace::Category::kFault, node, name, eng.now(), value);
}

void FaultInjector::arm() {
  sim::Engine& eng = cluster_.engine();
  net::Network& net = cluster_.network();

  for (const auto& w : plan_.link_down) {
    eng.schedule_at(w.start, [this, &net, w] {
      fire(w.node, "fault/link_down", w.duration.as_nanos());
      net.set_link_state(w.node, false);
    });
    eng.schedule_at(w.start + w.duration, [this, &net, w] {
      fire(w.node, "fault/link_up", 0);
      net.set_link_state(w.node, true);
    });
  }

  std::uint64_t stream = 0;
  for (const auto& w : plan_.burst_loss) {
    const std::uint64_t seed = derived_seed(stream++);
    eng.schedule_at(w.start, [this, &net, w, seed] {
      fire(-1, "fault/burst_loss_on", w.duration.as_nanos());
      net.set_burst_loss(w.params, seed);
    });
    eng.schedule_at(w.start + w.duration, [this, &net] {
      fire(-1, "fault/burst_loss_off", 0);
      net.clear_burst_loss();
    });
  }

  for (const auto& w : plan_.corruption) {
    const std::uint64_t seed = derived_seed(stream++);
    eng.schedule_at(w.start, [this, &net, w, seed] {
      fire(-1, "fault/corruption_on",
           static_cast<std::int64_t>(w.probability * 1e6));
      net.set_corruption(w.probability, seed);
    });
    eng.schedule_at(w.start + w.duration, [this, &net, seed] {
      fire(-1, "fault/corruption_off", 0);
      net.set_corruption(0.0, seed);
    });
  }

  for (const auto& w : plan_.port_degrade) {
    eng.schedule_at(w.start, [this, &net, w] {
      fire(w.node, "fault/port_degrade",
           static_cast<std::int64_t>(w.rate_factor * 1e6));
      net.set_port_rate_factor(w.node, w.rate_factor);
    });
    eng.schedule_at(w.start + w.duration, [this, &net, w] {
      fire(w.node, "fault/port_restore", 0);
      net.set_port_rate_factor(w.node, 1.0);
    });
  }

  for (const auto& w : plan_.buffer_shrink) {
    eng.schedule_at(w.start, [this, &net, w] {
      fire(w.node, "fault/buffer_shrink",
           static_cast<std::int64_t>(w.buffer_factor * 1e6));
      net.set_port_buffer_factor(w.node, w.buffer_factor);
    });
    eng.schedule_at(w.start + w.duration, [this, &net, w] {
      fire(w.node, "fault/buffer_restore", 0);
      net.set_port_buffer_factor(w.node, 1.0);
    });
  }

  // Interior links are undirected; window values name them by the
  // normalized (min, max) pair so the trace agrees with the per-link
  // counters (net/link/s<min>-s<max>) whichever order the plan used.
  const auto link_value = [](int a, int b) {
    return (static_cast<std::int64_t>(std::min(a, b)) << 32) |
           static_cast<std::int64_t>(std::max(a, b));
  };
  for (const auto& w : plan_.interior_link_down) {
    eng.schedule_at(w.start, [this, &net, w, link_value] {
      fire(-1, "fault/interior_link_down", link_value(w.switch_a, w.switch_b));
      net.set_interior_link_state(w.switch_a, w.switch_b, false);
    });
    eng.schedule_at(w.start + w.duration, [this, &net, w, link_value] {
      fire(-1, "fault/interior_link_up", link_value(w.switch_a, w.switch_b));
      net.set_interior_link_state(w.switch_a, w.switch_b, true);
    });
  }

  for (const auto& w : plan_.interior_link_failed) {
    // Permanent: only the opening edge exists; nothing ever restores the
    // link, so recovery is entirely the routing plane's (or the
    // protocols') problem.
    eng.schedule_at(w.start, [this, &net, w, link_value] {
      fire(-1, "fault/interior_link_failed",
           link_value(w.switch_a, w.switch_b));
      net.set_interior_link_state(w.switch_a, w.switch_b, false);
    });
  }

  for (const auto& w : plan_.card_reset) {
    // begin_reset models the whole window itself (the card stays offline
    // for the duration), so only the opening edge is scheduled.
    eng.schedule_at(w.start, [this, w] {
      fire(w.node, "fault/card_reset", w.duration.as_nanos());
      cluster_.card(static_cast<std::size_t>(w.node)).begin_reset(w.duration);
    });
  }
}

}  // namespace acc::fault
