// The paper-figure suites and the ablations that re-run the FFT or the
// sort under one changed knob.  Every point is one unverified app run
// through fft_run() or sort_run().
#include "apps/fft_app.hpp"
#include "apps/sort_app.hpp"
#include "hw/dma.hpp"
#include "model/fft_model.hpp"
#include "model/sort_model.hpp"
#include "runner/suites/suites.hpp"
#include "sim/resource.hpp"

namespace acc::runner::suites {

namespace {

/// Machine-friendly interconnect names for point names / JSON params
/// (to_string() is the human form, with spaces and parentheses).
const char* slug(apps::Interconnect ic) {
  switch (ic) {
    case apps::Interconnect::kFastEthernetTcp: return "fast_ethernet";
    case apps::Interconnect::kGigabitTcp: return "gige";
    case apps::Interconnect::kInicIdeal: return "inic_ideal";
    case apps::Interconnect::kInicPrototype: return "inic_prototype";
  }
  return "?";
}

// The app drivers.  `fill(cluster, result, m)` reads the finished run
// into the point's metrics while its cluster is still alive; sim_time
// is already the run's total.

/// An unverified n x n FFT on `s`.
template <class Fill>
RunMetrics fft_run(const Scenario& s, std::size_t n, const Fill& fill) {
  return run_scenario(s, [&](apps::SimCluster& cluster, fault::FaultInjector*,
                             RunMetrics& m) {
    const auto r = apps::run_parallel_fft(cluster, n, {.verify = false});
    m.sim_time = r.total;
    fill(cluster, r, m);
  });
}

/// An unverified sort of `keys` keys on `s`.
template <class Fill>
RunMetrics sort_run(const Scenario& s, std::size_t keys,
                    apps::SortRunOptions opts, const Fill& fill) {
  opts.verify = false;
  return run_scenario(s, [&](apps::SimCluster& cluster, fault::FaultInjector*,
                             RunMetrics& m) {
    const auto r = apps::run_parallel_sort(cluster, keys, opts);
    m.sim_time = r.total;
    fill(cluster, r, m);
  });
}

RunMetrics fft_sim_metrics(apps::Interconnect ic, std::size_t n,
                           std::size_t p) {
  const Time serial =
      apps::run_serial_fft(model::default_calibration(), n).total;
  return fft_run({.hosts = p, .interconnect = ic}, n,
                 [&](apps::SimCluster&, const apps::FftRunResult& r,
                     RunMetrics& m) {
                   m.speedup = serial / r.total;
                   m.counters = {
                       {"compute_ns", r.compute.as_nanos()},
                       {"transpose_ns", r.transpose.as_nanos()},
                       {"model_speedup_ppm",
                        ppm(model::FftAnalyticModel().inic_speedup(n, p))}};
                 });
}

RunMetrics sort_sim_metrics(apps::Interconnect ic, std::size_t keys,
                            std::size_t p) {
  const Time serial =
      apps::run_serial_sort(model::default_calibration(), keys).total;
  return sort_run({.hosts = p, .interconnect = ic}, keys, {},
                  [&](apps::SimCluster&, const apps::SortRunResult& r,
                      RunMetrics& m) {
                    m.speedup = serial / r.total;
                    m.counters = {
                        {"count_sort_ns", r.count_sort.as_nanos()},
                        {"bucket_phase1_ns", r.bucket_phase1.as_nanos()},
                        {"bucket_phase2_ns", r.bucket_phase2.as_nanos()},
                        {"redistribution_ns", r.redistribution.as_nanos()}};
                  });
}

/// Sort run on the ideal INIC under a modified calibration or key
/// distribution (ablations).  No speedup — the serial baseline of a
/// non-default calibration is not what the ablation compares against
/// (each sweep is self-relative).
RunMetrics sort_ablation_metrics(const model::Calibration& cal,
                                 std::size_t keys, std::size_t p,
                                 apps::SortRunOptions opts = {}) {
  return sort_run({.hosts = p, .calibration = cal}, keys, opts,
                  [](apps::SimCluster&, const apps::SortRunResult& r,
                     RunMetrics& m) {
                    m.counters = {
                        {"redistribution_ns", r.redistribution.as_nanos()}};
                  });
}

/// Figure 5(a): the GigE sort's phase times plus communication (total
/// minus the three compute phases; none at P = 1) and the Equation 12
/// partition size.
RunMetrics sort_components_metrics(std::size_t keys, std::size_t p) {
  RunMetrics m = sort_sim_metrics(apps::Interconnect::kGigabitTcp, keys, p);
  const std::int64_t comm =
      p == 1 ? 0
             : m.sim_time.as_nanos() - m.counter("count_sort_ns") -
                   m.counter("bucket_phase1_ns") -
                   m.counter("bucket_phase2_ns");
  const Bytes partition = model::SortAnalyticModel().partition_size(keys, p);
  m.counters.emplace_back("comm_ns", comm);
  m.counters.emplace_back("partition_bytes", i64(partition.count()));
  return m;
}

/// Equation 15's trade-off at one card-to-host DMA threshold: the sort
/// run, the DMA efficiency of a threshold-sized transfer, and the
/// guaranteed-accumulation delay T_dfg at N = 256 buckets.
RunMetrics dma_threshold_metrics(const model::Calibration& cal,
                                 std::size_t keys, std::size_t p) {
  RunMetrics m = sort_ablation_metrics(cal, keys, p);
  sim::Engine eng;
  sim::FifoResource bus(eng, cal.host_pci_bus);
  const hw::DmaEngine dma(bus, {.setup = cal.dma_setup,
                                .max_burst = cal.dma_efficiency_threshold});
  const double efficiency = dma.efficiency(cal.dma_efficiency_threshold);
  m.counters.emplace_back("dma_efficiency_ppm", ppm(efficiency));
  m.counters.emplace_back(
      "accum_delay_ns", model::SortAnalyticModel(cal).t_dfg(256).as_nanos());
  return m;
}

RunMetrics transpose_metrics(std::size_t n, std::size_t p) {
  model::FftAnalyticModel fft_model;
  const Time host_compute = fft_model.host_transpose_compute_time(n, p);
  const Time inic = fft_model.inic_transpose_time(n, p);
  const Bytes partition = fft_model.partition_size(n, p);
  return fft_run(
      {.hosts = p, .interconnect = apps::Interconnect::kGigabitTcp}, n,
      [&](apps::SimCluster&, const apps::FftRunResult& r, RunMetrics& m) {
        const Time comm = p == 1 ? Time::zero() : r.transpose - host_compute;
        m.counters = {{"nic_comm_ns", comm.as_nanos()},
                      {"nic_compute_ns", host_compute.as_nanos()},
                      {"inic_transpose_ns", inic.as_nanos()},
                      {"partition_bytes", i64(partition.count())}};
      });
}

/// Section 4.1's interrupt-mitigation trade-off: a GigE FFT under one
/// coalescing policy, with node 0's interrupt count and CPU time.
RunMetrics coalescing_metrics(std::size_t frames, Time timeout, std::size_t n,
                              std::size_t p) {
  model::Calibration cal = model::default_calibration();
  cal.interrupt_coalesce_frames = frames;
  cal.interrupt_coalesce_timeout = timeout;
  return fft_run(
      {.hosts = p,
       .interconnect = apps::Interconnect::kGigabitTcp,
       .calibration = cal},
      n,
      [](apps::SimCluster& cluster, const apps::FftRunResult& r,
         RunMetrics& m) {
        const hw::Cpu& cpu = cluster.node(0).cpu();
        m.counters = {
            {"fft_ns", r.total.as_nanos()},
            {"transpose_ns", r.transpose.as_nanos()},
            {"interrupts", i64(cpu.interrupts_serviced())},
            {"interrupt_cpu_ns", cpu.total_interrupt_time().as_nanos()}};
      });
}

/// Section 3.2's sampling pre-sort: the INIC sort under one key
/// distribution with top-bit buckets, then with sampled splitters.
RunMetrics key_distribution_metrics(apps::KeyDistribution dist, double sigma,
                                    std::size_t keys, std::size_t p) {
  const model::Calibration& cal = model::default_calibration();
  apps::SortRunOptions opts;
  opts.distribution = dist;
  opts.gaussian_sigma = sigma;
  const Time plain = sort_ablation_metrics(cal, keys, p, opts).sim_time;
  opts.sampling_splitters = true;
  RunMetrics m = sort_ablation_metrics(cal, keys, p, opts);
  m.counters = {{"plain_ns", plain.as_nanos()},
                {"sampled_ns", m.sim_time.as_nanos()},
                {"sampling_win_ppm", ppm(plain / m.sim_time)}};
  return m;
}

}  // namespace

/// The six paper-figure and ablation suites, then the interrupt
/// coalescing and key distribution ablations.
void add_app_suites(bool reduced, std::vector<Suite>& suites) {
  const auto procs = axis<std::size_t>(reduced, {1, 2, 4}, {1, 2, 4, 8, 16});
  const auto fft_sizes = axis<std::size_t>(reduced, {64}, {256, 512});
  const std::size_t sort_keys = std::size_t{1} << (reduced ? 16 : 25);
  const std::size_t ablation_keys = std::size_t{1} << (reduced ? 16 : 24);
  const std::size_t ablation_p = reduced ? 4 : 8;

  // Figure 8(a): FFT speedup across the three interconnect families.
  Suite fig8a{"fig8a_fft_sim",
              {},
              {{"INIC model (ideal)", "model_speedup_ppm", 1e-6, 2}}};
  for (auto ic : {apps::Interconnect::kInicPrototype,
                  apps::Interconnect::kFastEthernetTcp,
                  apps::Interconnect::kGigabitTcp}) {
    for (std::size_t n : fft_sizes) {
      for (std::size_t p : procs) {
        add_point(fig8a,
                  std::string(slug(ic)) + "/n=" + num(n) + "/P=" + num(p),
                  {{"interconnect", slug(ic)}, {"n", num(n)}, {"P", num(p)}},
                  [ic, n, p] { return fft_sim_metrics(ic, n, p); });
      }
    }
  }
  suites.push_back(std::move(fig8a));

  // Figure 8(b): sort speedup, prototype vs GigE vs ideal INIC.
  Suite fig8b{"fig8b_sort_sim",
              {},
              {{"INIC model (ideal)", "model_speedup_ppm", 1e-6, 2}}};
  for (auto ic : {apps::Interconnect::kInicPrototype,
                  apps::Interconnect::kGigabitTcp,
                  apps::Interconnect::kInicIdeal}) {
    for (std::size_t p : procs) {
      add_point(
          fig8b,
          std::string(slug(ic)) + "/keys=" + num(sort_keys) + "/P=" + num(p),
          {{"interconnect", slug(ic)},
           {"keys", num(sort_keys)},
           {"P", num(p)}},
          [ic, sort_keys, p] {
            RunMetrics m = sort_sim_metrics(ic, sort_keys, p);
            m.counters.emplace_back(
                "model_speedup_ppm",
                ppm(model::SortAnalyticModel().inic_speedup(
                    sort_keys, p, /*cache_buckets=*/256)));
            return m;
          });
    }
  }
  suites.push_back(std::move(fig8b));

  // Figure 4(b): transpose decomposition (GigE, largest FFT size).
  Suite fig4b{"fig4b_transpose",
              {},
              {{"NIC comm (ms)", "nic_comm_ns", 1e-6, 2},
               {"NIC compute (ms)", "nic_compute_ns", 1e-6, 2},
               {"INIC trans (ms)", "inic_transpose_ns", 1e-6, 2},
               {"partition (KB)", "partition_bytes", 1.0 / 1024, 1}}};
  const std::size_t decomp_n = fft_sizes.back();
  for (std::size_t p : procs) {
    if (decomp_n % p != 0) continue;
    add_point(fig4b, "gige/n=" + num(decomp_n) + "/P=" + num(p),
              {{"interconnect", "gige"}, {"n", num(decomp_n)}, {"P", num(p)}},
              [decomp_n, p] { return transpose_metrics(decomp_n, p); });
  }
  suites.push_back(std::move(fig4b));

  // Figure 5(a): sort component times (GigE).
  Suite fig5a{"fig5a_sort_components",
              {},
              {{"count sort (ms)", "count_sort_ns", 1e-6, 1},
               {"phase1 bucket (ms)", "bucket_phase1_ns", 1e-6, 1},
               {"phase2 bucket (ms)", "bucket_phase2_ns", 1e-6, 1},
               {"comm (ms)", "comm_ns", 1e-6, 1},
               {"partition (KB)", "partition_bytes", 1.0 / 1024, 0}}};
  for (std::size_t p : procs) {
    add_point(
        fig5a, "gige/keys=" + num(sort_keys) + "/P=" + num(p),
        {{"interconnect", "gige"}, {"keys", num(sort_keys)}, {"P", num(p)}},
        [sort_keys, p] { return sort_components_metrics(sort_keys, p); });
  }
  suites.push_back(std::move(fig5a));

  // Ablation: INIC packet size (Section 4.2 — expected nearly flat).
  Suite packet{"ablation_packet_size",
               {},
               {{"redistribution (ms)", "redistribution_ns", 1e-6, 1}}};
  const auto packets = axis<std::uint64_t>(reduced, {256, 1024, 4096},
                                           {256, 512, 1024, 2048, 4096});
  for (std::uint64_t bytes : packets) {
    model::Calibration cal = model::default_calibration();
    cal.inic_packet = Bytes(bytes);
    add_point(packet,
              "packet=" + std::to_string(bytes) + "/P=" + num(ablation_p),
              {{"packet_bytes", std::to_string(bytes)},
               {"keys", num(ablation_keys)},
               {"P", num(ablation_p)}},
              [cal, ablation_keys, ablation_p] {
                return sort_ablation_metrics(cal, ablation_keys, ablation_p);
              });
  }
  suites.push_back(std::move(packet));

  // Ablation: card-to-host DMA threshold (Equation 15's 64 KB knee).
  Suite dma{"ablation_dma_threshold",
            {},
            {{"DMA efficiency", "dma_efficiency_ppm", 1e-6, 3},
             {"N x thr delay (ms)", "accum_delay_ns", 1e-6, 1}}};
  const auto thresholds_kib =
      axis<std::uint64_t>(reduced, {16, 64, 256}, {4, 16, 32, 64, 128, 256});
  for (std::uint64_t kib : thresholds_kib) {
    model::Calibration cal = model::default_calibration();
    cal.dma_efficiency_threshold = Bytes::kib(kib);
    add_point(dma, "thr=" + std::to_string(kib) + "KiB/P=" + num(ablation_p),
              {{"threshold_kib", std::to_string(kib)},
               {"keys", num(ablation_keys)},
               {"P", num(ablation_p)}},
              [cal, ablation_keys, ablation_p] {
                return dma_threshold_metrics(cal, ablation_keys, ablation_p);
              });
  }
  suites.push_back(std::move(dma));

  // Interrupt-coalescing policy vs a GigE FFT (Section 4.1).
  struct Policy {
    const char* label;
    std::size_t frames;
    Time timeout;
  };
  const Policy policies[] = {
      {"per_packet", 1, Time::micros(1)},
      {"mild", 4, Time::micros(50)},
      {"default", 16, Time::micros(400)},
      {"aggressive", 64, Time::millis(1)},
  };
  const std::size_t fft_n = reduced ? 64 : 512;
  const std::size_t fft_p = reduced ? 4 : 8;
  Suite coalescing{"ablation_interrupt_coalescing",
                   {},
                   {{"FFT total (ms)", "fft_ns", 1e-6, 1},
                    {"transpose (ms)", "transpose_ns", 1e-6, 1},
                    {"node0 interrupts", "interrupts"},
                    {"node0 intr CPU (ms)", "interrupt_cpu_ns", 1e-6, 2}}};
  for (const Policy& pol : policies) {
    add_point(coalescing,
              std::string(pol.label) + "/frames=" + num(pol.frames) +
                  "/n=" + num(fft_n) + "/P=" + num(fft_p),
              {{"policy", pol.label},
               {"frames", num(pol.frames)},
               {"timeout_us", std::to_string(pol.timeout.as_nanos() / 1000)},
               {"n", num(fft_n)},
               {"P", num(fft_p)}},
              [pol, fft_n, fft_p] {
                return coalescing_metrics(pol.frames, pol.timeout, fft_n,
                                          fft_p);
              });
  }
  suites.push_back(std::move(coalescing));

  // Key distribution x sampling pre-sort on the ideal INIC (Section 3.2).
  struct Distribution {
    const char* label;
    apps::KeyDistribution dist;
    double sigma;
  };
  const Distribution distributions[] = {
      {"uniform", apps::KeyDistribution::kUniform, 0.0},
      {"gaussian_sigma=2^29", apps::KeyDistribution::kGaussian,
       static_cast<double>(1u << 29)},
      {"gaussian_sigma=2^27", apps::KeyDistribution::kGaussian,
       static_cast<double>(1u << 27)},
  };
  const std::size_t dist_keys = std::size_t{1} << (reduced ? 16 : 22);
  const std::size_t dist_p = reduced ? 4 : 8;
  Suite keys{"ablation_key_distribution",
             {},
             {{"top-bit buckets (ms)", "plain_ns", 1e-6, 1},
              {"sampled splitters (ms)", "sampled_ns", 1e-6, 1},
              {"sampling win", "sampling_win_ppm", 1e-6, 2}}};
  for (const Distribution& d : distributions) {
    add_point(keys,
              std::string(d.label) + "/keys=" + num(dist_keys) +
                  "/P=" + num(dist_p),
              {{"distribution", d.label},
               {"keys", num(dist_keys)},
               {"P", num(dist_p)}},
              [d, dist_keys, dist_p] {
                return key_distribution_metrics(d.dist, d.sigma, dist_keys,
                                                dist_p);
              });
  }
  suites.push_back(std::move(keys));
}

}  // namespace acc::runner::suites
