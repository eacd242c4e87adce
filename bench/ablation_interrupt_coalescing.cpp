// Ablation: interrupt-mitigation policy on the TCP/Gigabit baseline
// (Section 4.1).
//
// "High speed network interfaces typically use some form of interrupt
// mitigation — based on a time-out or number of messages received...
// but it interacts poorly with TCP slow-start for short messages."
// This sweep runs the Gigabit FFT transpose under different coalescing
// policies: aggressive batching helps big streams but hurts the
// latency-bound transpose exchanges; per-packet interrupts melt the CPU.
// There is no good setting — which is the paper's point: the INIC
// removes the trade-off entirely.
#include <cstdio>

#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "common/table.hpp"
#include "model/calibration.hpp"

using namespace acc;

int main() {
  print_banner(
      "Ablation: interrupt coalescing policy vs GigE FFT time (512x512, P = 8)");

  struct Policy {
    const char* name;
    std::size_t frames;
    Time timeout;
  };
  const Policy policies[] = {
      {"per-packet (no mitigation)", 1, Time::micros(1)},
      {"mild (4 frames / 50 us)", 4, Time::micros(50)},
      {"default (16 frames / 400 us)", 16, Time::micros(400)},
      {"aggressive (64 frames / 1 ms)", 64, Time::millis(1)},
  };

  Table table({"policy", "FFT total (ms)", "transpose (ms)",
               "interrupts/node", "intr CPU (ms)"});
  for (const Policy& pol : policies) {
    model::Calibration cal = model::default_calibration();
    cal.interrupt_coalesce_frames = pol.frames;
    cal.interrupt_coalesce_timeout = pol.timeout;
    apps::SimCluster cluster(8, apps::Interconnect::kGigabitTcp, cal);
    apps::FftRunOptions opts;
    opts.verify = false;
    const auto r = run_parallel_fft(cluster, 512, opts);
    table.row()
        .add(pol.name)
        .add(r.total.as_millis(), 1)
        .add(r.transpose.as_millis(), 1)
        .add(static_cast<std::int64_t>(cluster.node(0).cpu().interrupts_serviced()))
        .add(cluster.node(0).cpu().total_interrupt_time().as_millis(), 2);
  }
  table.print();

  std::puts(
      "\nExpected: per-packet interrupts maximize CPU interrupt load;"
      "\naggressive coalescing inflates transpose latency.  The INIC"
      "\n(bench_all's fig4b/fig8a suites) avoids the trade-off: zero"
      "\ninterrupts.");
  return 0;
}
