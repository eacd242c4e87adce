// Figure 4(a): FFTW speedups for an Intelligent NIC vs. a Gigabit
// Ethernet cluster, 256x256 and 512x512, P = 1..16.
//
// As in the paper, the INIC curves come from the analytic model of
// Section 4.1 (Equations 3-10) while the Gigabit Ethernet curves are
// "measured" — here, produced by the discrete-event simulator.  Rows
// where the simulator needs P | n print "-" for the simulated series
// (the paper's footnote 2 interpolated those points for plotting).
#include <cstdio>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "common/table.hpp"
#include "model/fft_model.hpp"

using namespace acc;

int main() {
  print_banner("Figure 4(a): FFT speedup, INIC (analytic) vs Gigabit Ethernet (simulated)");

  model::FftAnalyticModel fft_model;
  Table table({"P", "INIC 256x256", "INIC 512x512", "GigE 256x256",
               "GigE 512x512"});

  for (std::size_t p = 1; p <= 16; ++p) {
    table.row().add(static_cast<std::int64_t>(p));
    for (std::size_t n : {std::size_t{256}, std::size_t{512}}) {
      if (n % p == 0) {
        table.add(fft_model.inic_speedup(n, p), 2);
      } else {
        table.skip();
      }
    }
    for (std::size_t n : {std::size_t{256}, std::size_t{512}}) {
      if (n % p == 0) {
        const Time serial =
            apps::run_serial_fft(fft_model.calibration(), n).total;
        apps::SimCluster cluster(p, apps::Interconnect::kGigabitTcp);
        const auto point =
            apps::run_parallel_fft(cluster, n, {.verify = false});
        table.add(serial / point.total, 2);
      } else {
        table.skip();
      }
    }
  }
  table.print();

  std::puts("\nExpected shape (paper): INIC near-linear with no sign of"
            "\nflattening; Gigabit Ethernet flattens around 2-4x.");
  return 0;
}
