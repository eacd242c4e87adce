// Deterministic fault injection against a SimCluster run.
//
// A FaultPlan is a scripted schedule of fault windows — link outages,
// bursty (Gilbert–Elliott) loss, frame corruption, line-rate degradation,
// switch-buffer shrink, and INIC card resets (FPGA bitstream
// reconfiguration).  A FaultInjector arms the plan's events on the
// cluster's engine at construction; the run then executes against the
// faulted fabric with no further involvement from the injector.
//
// Determinism contract: every stochastic element (burst-loss chain,
// corruption coin flips) consumes its own RNG stream seeded from
// FaultPlan::seed, and window edges are plain scheduled events, so the
// same (cluster config, workload seed, fault plan) always produces the
// same trace digest.  All window edges are emitted into the trace under
// Category::kFault and counted in "fault/events".
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "fault/gilbert_elliott.hpp"

namespace acc::apps {
class SimCluster;
}
namespace acc::trace {
class Counter;
}

namespace acc::fault {

struct LinkDownWindow {
  int node = 0;
  Time start = Time::zero();
  Time duration = Time::zero();
};

struct BurstLossWindow {
  Time start = Time::zero();
  Time duration = Time::zero();
  GilbertElliottParams params{};
};

struct CorruptionWindow {
  Time start = Time::zero();
  Time duration = Time::zero();
  double probability = 0.0;
};

struct PortDegradeWindow {
  int node = 0;
  Time start = Time::zero();
  Time duration = Time::zero();
  double rate_factor = 1.0;  // egress rate multiplier while the window is open
};

struct BufferShrinkWindow {
  int node = 0;
  Time start = Time::zero();
  Time duration = Time::zero();
  double buffer_factor = 1.0;  // port-buffer capacity multiplier
};

struct CardResetWindow {
  int node = 0;
  Time start = Time::zero();
  Time duration = Time::zero();  // how long the card is offline
};

/// Backbone outage: one switch-switch link of a multi-hop fabric goes
/// dark in both directions (net/topology.hpp switch ids).  Frames in
/// flight toward the failed hop are lost there; routing is static, so
/// traffic whose deterministic path crosses the link keeps failing until
/// the window closes (recovery is the protocols' job).
struct InteriorLinkDownWindow {
  int switch_a = 0;
  int switch_b = 0;
  Time start = Time::zero();
  Time duration = Time::zero();
};

/// Permanent backbone failure: the link goes dark at `start` and never
/// recovers — the hardware-replacement scenario the adaptive routing
/// plane (net::NetworkConfig::adaptive_routing) exists for.  On a static-routing fabric
/// every flow crossing the link keeps failing until its protocol gives
/// up; with adaptive routing the fabric re-converges around it.
struct InteriorLinkFailure {
  int switch_a = 0;
  int switch_b = 0;
  Time start = Time::zero();
};

/// A scripted, seeded schedule of fault windows.  Build with the with_*
/// helpers (chainable) or fill the vectors directly.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<LinkDownWindow> link_down;
  std::vector<BurstLossWindow> burst_loss;
  std::vector<CorruptionWindow> corruption;
  std::vector<PortDegradeWindow> port_degrade;
  std::vector<BufferShrinkWindow> buffer_shrink;
  std::vector<CardResetWindow> card_reset;
  std::vector<InteriorLinkDownWindow> interior_link_down;
  std::vector<InteriorLinkFailure> interior_link_failed;

  FaultPlan& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  FaultPlan& with_link_down(int node, Time start, Time duration) {
    link_down.push_back({node, start, duration});
    return *this;
  }
  FaultPlan& with_burst_loss(Time start, Time duration,
                             const GilbertElliottParams& params = {}) {
    burst_loss.push_back({start, duration, params});
    return *this;
  }
  FaultPlan& with_corruption(Time start, Time duration, double probability) {
    corruption.push_back({start, duration, probability});
    return *this;
  }
  FaultPlan& with_port_degrade(int node, Time start, Time duration,
                               double rate_factor) {
    port_degrade.push_back({node, start, duration, rate_factor});
    return *this;
  }
  FaultPlan& with_buffer_shrink(int node, Time start, Time duration,
                                double buffer_factor) {
    buffer_shrink.push_back({node, start, duration, buffer_factor});
    return *this;
  }
  FaultPlan& with_card_reset(int node, Time start, Time duration) {
    card_reset.push_back({node, start, duration});
    return *this;
  }
  FaultPlan& with_interior_link_down(int switch_a, int switch_b, Time start,
                                     Time duration) {
    interior_link_down.push_back({switch_a, switch_b, start, duration});
    return *this;
  }
  FaultPlan& with_interior_link_failed(int switch_a, int switch_b,
                                       Time start) {
    interior_link_failed.push_back({switch_a, switch_b, start});
    return *this;
  }

  bool empty() const {
    return link_down.empty() && burst_loss.empty() && corruption.empty() &&
           port_degrade.empty() && buffer_shrink.empty() &&
           card_reset.empty() && interior_link_down.empty() &&
           interior_link_failed.empty();
  }
};

/// Arms a FaultPlan against a cluster.  Construct it after the cluster and
/// before the run; it must outlive the run (the scheduled events reference
/// it).  Card-reset windows require an INIC interconnect; a cluster on
/// more than one LP is rejected (std::invalid_argument).
class FaultInjector {
 public:
  FaultInjector(apps::SimCluster& cluster, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  /// Fault-window edges that have fired so far (both opens and closes).
  std::uint64_t events_fired() const;

 private:
  void arm();
  void fire(int node, const char* name, std::int64_t value);
  /// Derives an independent RNG seed for stochastic stream `index` from
  /// the plan seed (splitmix-style), so windows do not share streams.
  std::uint64_t derived_seed(std::uint64_t index) const;

  apps::SimCluster& cluster_;
  FaultPlan plan_;
  trace::Counter& events_;
};

}  // namespace acc::fault
