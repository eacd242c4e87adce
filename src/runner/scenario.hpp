// The one path every bench point that runs a SimCluster takes.  A
// Scenario is a plain value: the cluster (hosts, interconnect,
// calibration, ClusterOptions) plus the run's harness (trace ring,
// watchdog, fault plan).  run_scenario() builds the cluster, arms the
// harness, hands the cluster to a workload driver, and then fills the
// fields every traced point reports (digest, trace_records, events,
// threads).  The driver owns everything else in RunMetrics, including
// the counter order the golden tables pin.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "apps/cluster.hpp"
#include "fault/fault.hpp"
#include "model/calibration.hpp"
#include "runner/sweep.hpp"

namespace acc::runner {

struct Scenario {
  std::size_t hosts = 2;
  apps::Interconnect interconnect = apps::Interconnect::kInicIdeal;
  model::Calibration calibration = model::default_calibration();
  apps::ClusterOptions options{};
  /// Trace ring capacity; 0 keeps every record (drivers that scan them).
  std::size_t trace_ring = 256;
  /// Watchdog on simulated time (sim::Engine::set_time_budget); zero
  /// leaves the run unbounded.
  Time time_budget = Time::zero();
  /// Armed through a FaultInjector before the driver runs.  No plan
  /// means no injector; an empty plan still arms one.
  std::optional<fault::FaultPlan> faults{};
};

/// A workload on the built cluster.  It sets sim_time, counters and any
/// other body-chosen field of `m`; `injector` is null when the scenario
/// has no fault plan.
using Drive = std::function<void(apps::SimCluster& cluster,
                                 fault::FaultInjector* injector,
                                 RunMetrics& m)>;

/// Runs `drive` on `s`'s cluster and returns its metrics with the
/// digest, trace_records, events and threads of the run filled in.
RunMetrics run_scenario(const Scenario& s, const Drive& drive);

}  // namespace acc::runner
