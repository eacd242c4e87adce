// Post-run instrumentation reports: where did the time go?
//
// After any simulated run, a ClusterReport summarizes each node's CPU
// (application compute vs. protocol-stack vs. interrupt service), PCI
// traffic, and the fabric's forwarding/drop/buffering statistics — the
// quantities the paper argues about (host cycles spent on communication,
// interrupt load, buffer headroom).
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "apps/cluster.hpp"
#include "common/units.hpp"
#include "trace/counters.hpp"

namespace acc::core {

struct NodeReport {
  int node = -1;
  double cpu_utilization = 0.0;
  Time compute_time = Time::zero();
  Time protocol_time = Time::zero();
  Time interrupt_time = Time::zero();
  std::uint64_t interrupts = 0;
  Bytes pci_bytes = Bytes::zero();
  double pci_utilization = 0.0;
  // INIC-only counters (zero on standard-NIC clusters).
  std::uint64_t inic_bursts = 0;
  std::uint64_t inic_retransmits = 0;
  Bytes inic_bytes_to_host = Bytes::zero();
};

struct ClusterReport {
  std::vector<NodeReport> nodes;
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_dropped = 0;
  Bytes bytes_forwarded = Bytes::zero();
  Bytes peak_port_buffer = Bytes::zero();
  /// The engine partition: LP count and SimCluster::partition_reason().
  std::size_t lp_count = 0;
  const char* partition_reason = "";

  /// Full counter snapshot (deterministic order) from the engine's
  /// CounterRegistry — the same instrumentation the per-node columns are
  /// derived from, without the aggregation.
  std::vector<trace::CounterSample> counters;
  /// Trace stream summary: zero records unless tracing was enabled.
  std::uint64_t trace_records = 0;
  std::uint64_t trace_digest = 0;

  /// Totals across nodes.
  Time total_interrupt_time() const;
  Time total_protocol_time() const;
  std::uint64_t total_interrupts() const;

  /// Prints an aligned per-node table plus fabric totals.
  void print(std::ostream& os) const;
};

/// Snapshots the cluster's counters (call after the run completes).
ClusterReport collect_report(apps::SimCluster& cluster);

}  // namespace acc::core
