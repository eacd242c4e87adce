// Distributed integer sort across interconnects with the paper's phase
// breakdown (Sections 3.2, 4.2, 6.2) — including the prototype's
// two-phase bucket refinement.
//
//   $ ./intsort_cluster [log2_keys] [max_nodes]
#include <cstdio>
#include <cstdlib>

#include "core/acc.hpp"

using namespace acc;

int main(int argc, char** argv) {
  const std::size_t log2_keys =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 24;
  const std::size_t max_nodes =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 16;
  const std::size_t keys = std::size_t{1} << log2_keys;

  // Part 1: verified runs with real keys.
  std::puts("verified 2^16-key runs (real keys through the simulated cluster):");
  bool all_verified = true;
  for (auto ic :
       {apps::Interconnect::kGigabitTcp, apps::Interconnect::kInicIdeal,
        apps::Interconnect::kInicPrototype}) {
    apps::SimCluster cluster(4, ic);
    apps::SortRunOptions opts;
    opts.verify = true;
    const auto r = run_parallel_sort(cluster, std::size_t{1} << 16, opts);
    all_verified = all_verified && r.verified;
    std::printf("  %-24s %s\n", to_string(ic),
                r.verified ? "globally sorted" : "SORT FAILURE");
  }

  // Part 2: timing sweep.
  std::printf("\n2^%zu keys timing sweep:\n", log2_keys);
  const auto serial = apps::run_serial_sort(model::default_calibration(), keys);
  std::printf(
      "  serial: %.0f ms (bucket %.0f + %.0f ms, count sort %.0f ms)\n\n",
      serial.total.as_millis(), serial.bucket_phase1.as_millis(),
      serial.bucket_phase2.as_millis(), serial.count_sort.as_millis());

  Table table({"P", "interconnect", "total (ms)", "bucket p1 (ms)",
               "bucket p2 (ms)", "count sort (ms)", "speedup"});
  for (std::size_t p = 2; p <= max_nodes; p *= 2) {
    for (auto ic : {apps::Interconnect::kGigabitTcp,
                    apps::Interconnect::kInicPrototype,
                    apps::Interconnect::kInicIdeal}) {
      apps::SimCluster cluster(p, ic);
      const auto r = run_parallel_sort(cluster, keys, {.verify = false});
      table.row()
          .add(static_cast<std::int64_t>(p))
          .add(to_string(ic))
          .add(r.total.as_millis(), 1)
          .add(r.bucket_phase1.as_millis(), 1)
          .add(r.bucket_phase2.as_millis(), 1)
          .add(r.count_sort.as_millis(), 1)
          .add(serial.total / r.total, 2);
    }
  }
  table.print();
  std::puts(
      "\nNote the INIC rows: bucket phases are zero (absorbed into the\n"
      "stream) and speedups are superlinear; the prototype pays a host\n"
      "phase-2 refinement because its FPGAs only fit 16 hardware buckets.");
  return all_verified ? 0 : 1;
}
