#include "runner/scenario.hpp"

#include <algorithm>

namespace acc::runner {

RunMetrics run_scenario(const Scenario& s, const Drive& drive) {
  apps::SimCluster cluster(s.hosts, s.interconnect, s.calibration, s.options);
  cluster.enable_tracing(s.trace_ring);
  cluster.engine().set_time_budget(s.time_budget);
  std::optional<fault::FaultInjector> injector;
  if (s.faults) injector.emplace(cluster, *s.faults);
  RunMetrics m;
  m.threads = std::max<std::size_t>(1, s.options.engine_threads);
  drive(cluster, injector ? &*injector : nullptr, m);
  m.digest = cluster.digest();
  m.trace_records = cluster.trace_records();
  m.events = cluster.events_executed();
  return m;
}

}  // namespace acc::runner
