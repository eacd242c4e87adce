// Distributed 2D-FFT across every interconnect the paper evaluates,
// with a per-phase breakdown — the workload of Sections 3.1, 4.1, 6.1.
//
//   $ ./fft_cluster [matrix_size] [max_nodes]
//
// Runs verified (data-moving) FFTs at a small size, then a timing sweep
// at the requested size, printing speedup tables like Figure 8(a).
#include <cstdio>
#include <cstdlib>

#include "core/acc.hpp"

using namespace acc;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 512;
  const std::size_t max_nodes =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 16;
  if (!algo::is_pow2(n)) {
    std::fprintf(stderr, "matrix size must be a power of two\n");
    return 1;
  }

  // Part 1: verified runs — the distributed pipeline moves real data and
  // must match the serial FFT oracle bit-for-bit (within fp tolerance).
  std::puts("verified 64x64 runs (real data through the simulated cluster):");
  bool all_verified = true;
  for (auto ic :
       {apps::Interconnect::kFastEthernetTcp, apps::Interconnect::kGigabitTcp,
        apps::Interconnect::kInicIdeal, apps::Interconnect::kInicPrototype}) {
    apps::SimCluster cluster(4, ic);
    apps::FftRunOptions opts;
    opts.verify = true;
    const auto r = run_parallel_fft(cluster, 64, opts);
    all_verified = all_verified && r.verified;
    std::printf("  %-24s %s\n", to_string(ic),
                r.verified ? "OK" : "MISMATCH");
  }

  // Part 2: timing sweep at full size.
  std::printf("\n%zux%zu timing sweep (speedup over serial):\n", n, n);
  const auto serial = apps::run_serial_fft(model::default_calibration(), n);
  std::printf("  serial: %.1f ms (compute %.1f ms + transpose %.1f ms)\n\n",
              serial.total.as_millis(), serial.compute.as_millis(),
              serial.transpose.as_millis());

  Table table({"P", "interconnect", "total (ms)", "compute (ms)",
               "transpose (ms)", "speedup"});
  for (std::size_t p = 1; p <= max_nodes; p *= 2) {
    if (n % p != 0) continue;
    for (auto ic : {apps::Interconnect::kFastEthernetTcp,
                    apps::Interconnect::kGigabitTcp,
                    apps::Interconnect::kInicPrototype,
                    apps::Interconnect::kInicIdeal}) {
      apps::SimCluster cluster(p, ic);
      const auto r = run_parallel_fft(cluster, n, {.verify = false});
      table.row()
          .add(static_cast<std::int64_t>(p))
          .add(to_string(ic))
          .add(r.total.as_millis(), 1)
          .add(r.compute.as_millis(), 1)
          .add(r.transpose.as_millis(), 1)
          .add(serial.total / r.total, 2);
    }
  }
  table.print();
  return all_verified ? 0 : 1;
}
