// Collective operations on the INIC — the paper's closing claim made
// runnable: barrier, broadcast, reduce, allreduce, and all-to-all on the
// same cluster with standard NICs, with INICs driven by the host-tree
// backend, and with the card-resident NIC collective engine (trigger
// tables walking a binomial tree entirely on the cards), all
// functionally verified, plus a where-did-the-time-go report.
//
//   $ ./collective_offload [nodes]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "collectives/collectives.hpp"
#include "common/table.hpp"
#include "core/report.hpp"
#include "model/calibration.hpp"

using namespace acc;

namespace {

apps::SimCluster nic_engine_cluster(std::size_t nodes) {
  apps::ClusterOptions opts;
  opts.collective_backend = apps::CollectiveBackend::kNic;
  return apps::SimCluster(nodes, apps::Interconnect::kInicIdeal,
                          model::default_calibration(), opts);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t nodes =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  const std::size_t elements = 1 << 15;  // 256 KiB of doubles

  std::printf("collectives on %zu nodes, %zu doubles per vector\n\n", nodes,
              elements);

  Table table({"collective", "TCP/GigE", "INIC host-tree", "NIC engine",
               "best speedup", "verified"});
  using Runner = coll::CollectiveResult (*)(apps::SimCluster&, std::size_t,
                                            std::uint64_t);
  struct Op {
    const char* name;
    Runner run;
  };
  const Op ops[] = {
      {"broadcast", &coll::topology_broadcast},
      {"reduce", &coll::topology_reduce},
      {"allreduce", &coll::topology_allreduce},
      {"alltoall", &coll::alltoall},
  };

  bool all_verified = true;
  // Barrier first (different signature).
  {
    apps::SimCluster tcp(nodes, apps::Interconnect::kGigabitTcp);
    const auto r_tcp = coll::barrier(tcp);
    apps::SimCluster inic(nodes, apps::Interconnect::kInicIdeal);
    const auto r_inic = coll::barrier(inic);
    apps::SimCluster engine = nic_engine_cluster(nodes);
    const auto r_eng = coll::barrier(engine);
    const bool verified = r_tcp.verified && r_inic.verified && r_eng.verified;
    all_verified = all_verified && verified;
    table.row()
        .add("barrier")
        .add(to_string(r_tcp.total))
        .add(to_string(r_inic.total))
        .add(to_string(r_eng.total))
        .add(r_tcp.total / std::min(r_inic.total, r_eng.total), 2)
        .add(verified ? "yes" : "NO");
  }
  for (const Op& op : ops) {
    apps::SimCluster tcp(nodes, apps::Interconnect::kGigabitTcp);
    const auto r_tcp = op.run(tcp, elements, 1);
    apps::SimCluster inic(nodes, apps::Interconnect::kInicIdeal);
    const auto r_inic = op.run(inic, elements, 1);
    apps::SimCluster engine = nic_engine_cluster(nodes);
    const auto r_eng = op.run(engine, elements, 1);
    const bool verified = r_tcp.verified && r_inic.verified && r_eng.verified;
    all_verified = all_verified && verified;
    table.row()
        .add(op.name)
        .add(to_string(r_tcp.total))
        .add(to_string(r_inic.total))
        .add(to_string(r_eng.total))
        .add(r_tcp.total / std::min(r_inic.total, r_eng.total), 2)
        .add(verified ? "yes" : "NO");
  }
  table.print();

  // Show the instrumentation for one of the runs: the card-resident
  // allreduce leaves the host CPUs untouched — zero interrupts, zero
  // protocol time, only the trigger-table counters move.
  std::puts("\nNIC-engine allreduce instrumentation:");
  apps::SimCluster engine = nic_engine_cluster(nodes);
  coll::topology_allreduce(engine, elements, 1);
  core::collect_report(engine).print(std::cout);
  return all_verified ? 0 : 1;
}
