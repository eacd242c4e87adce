#include "core/report.hpp"

#include <cstdio>

#include "common/table.hpp"

namespace acc::core {

Time ClusterReport::total_interrupt_time() const {
  Time total = Time::zero();
  for (const auto& n : nodes) total += n.interrupt_time;
  return total;
}

Time ClusterReport::total_protocol_time() const {
  Time total = Time::zero();
  for (const auto& n : nodes) total += n.protocol_time;
  return total;
}

std::uint64_t ClusterReport::total_interrupts() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes) total += n.interrupts;
  return total;
}

void ClusterReport::print(std::ostream& os) const {
  Table table({"node", "cpu util", "compute", "proto", "intr", "intr#",
               "pci", "bursts", "retx"});
  for (const auto& n : nodes) {
    table.row()
        .add(n.node)
        .add(n.cpu_utilization, 3)
        .add(to_string(n.compute_time))
        .add(to_string(n.protocol_time))
        .add(to_string(n.interrupt_time))
        .add(static_cast<std::int64_t>(n.interrupts))
        .add(to_string(n.pci_bytes))
        .add(static_cast<std::int64_t>(n.inic_bursts))
        .add(static_cast<std::int64_t>(n.inic_retransmits));
  }
  table.print(os);
  os << "fabric: " << frames_forwarded << " frames / "
     << to_string(bytes_forwarded) << " forwarded, " << frames_dropped
     << " dropped, peak port buffer " << to_string(peak_port_buffer) << "\n";
  os << "partition: " << lp_count << (lp_count == 1 ? " LP, " : " LPs, ")
     << partition_reason << "\n";
  if (trace_records > 0) {
    char digest_hex[17];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(trace_digest));
    os << "trace: " << trace_records << " records, digest " << digest_hex
       << "\n";
  }
}

ClusterReport collect_report(apps::SimCluster& cluster) {
  ClusterReport report;
  const bool inic = apps::is_inic(cluster.interconnect());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    hw::Node& node = cluster.node(i);
    NodeReport nr;
    nr.node = node.id();
    nr.cpu_utilization = node.cpu().utilization();
    nr.compute_time = node.cpu().total_compute_time();
    nr.protocol_time = node.cpu().total_protocol_time();
    nr.interrupt_time = node.cpu().total_interrupt_time();
    nr.interrupts = node.cpu().interrupts_serviced();
    nr.pci_bytes = node.pci_bus().bytes_moved();
    nr.pci_utilization = node.pci_bus().utilization();
    if (inic) {
      inic::InicCard& card = cluster.card(i);
      nr.inic_bursts = card.bursts_sent();
      nr.inic_retransmits = card.retransmits();
      nr.inic_bytes_to_host = card.bytes_to_host();
    }
    report.nodes.push_back(nr);
  }
  report.frames_forwarded = cluster.network().frames_forwarded();
  report.frames_dropped = cluster.network().frames_dropped();
  report.bytes_forwarded = cluster.network().bytes_forwarded();
  report.peak_port_buffer = cluster.network().peak_buffer_occupancy();
  report.lp_count = cluster.partition().lp_count;
  report.partition_reason = cluster.partition_reason();
  // Cluster-level accessors: merged across LP lanes (on one LP, the
  // historical single-engine values).
  report.counters = cluster.counters_snapshot();
  report.trace_records = cluster.trace_records();
  report.trace_digest = cluster.digest();
  return report;
}

}  // namespace acc::core
