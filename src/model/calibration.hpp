// Calibration constants, each traceable to the paper or to the 2001-era
// prototype it describes (Section 4 and 5).  This is the one table of the
// machine's constants: the analytic models read it, and so does every
// device model.  A hw::Node holds a reference to a Calibration, and its
// CPU, memory hierarchy, DMA engine, interrupt coalescer, standard NIC,
// TCP stack and INIC card read their rates, sizes and costs from it; no
// device keeps a copy.  A SimCluster holds one copy for all its nodes,
// so a single edit retunes the whole reproduction.  What a run chooses
// on top of the machine (ideal or prototype card, credit window, go-back-N)
// is inic::InicConfig; the switch fabric takes its line rate, latency and
// port buffer through net::NetworkConfig, since it is also built alone.
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace acc::model {

struct Calibration {
  // ---- INIC datapath rates (Section 4, Equations 6-9 and 13-16). ----
  // "Numbers used in calculations are a conservative 80%-90% of measured
  // results": host <-> card DMA sustains 80 MB/s, card <-> network 90 MB/s.
  Bandwidth host_to_card = Bandwidth::mib_per_sec(80.0);
  Bandwidth card_to_network = Bandwidth::mib_per_sec(90.0);

  // ---- Prototype ACEII deficiencies (Sections 5-6). ----
  // A single 132 MB/s bus on the card carries *all* traffic (host DMA and
  // network both cross it), and the Xilinx 4085XLA parts only fit a
  // 16-way bucket-sort engine.
  Bandwidth prototype_card_bus = Bandwidth::mib_per_sec(132.0);
  std::size_t prototype_max_buckets = 16;

  // ---- Network fabrics (Section 5). ----
  Bandwidth gigabit_line_rate = Bandwidth::gbit_per_sec(1.0);
  Bandwidth fast_ethernet_line_rate = Bandwidth::mbit_per_sec(100.0);
  // Switch port-to-port latency and per-port output buffering typical of
  // 2001 GigE switches; the INIC protocol's no-loss argument (Section 4.1)
  // depends on total in-flight data fitting NIC+switch buffers.
  Time switch_latency = Time::micros(4.0);
  Bytes switch_port_buffer = Bytes::kib(512);

  // ---- Host system (Section 5: 1 GHz Athlon, 512 MB, 32-bit PCI). ----
  Bandwidth host_pci_bus = Bandwidth::mib_per_sec(132.0);  // 32-bit/33 MHz
  // Sustained double-precision FFT rate of a 1 GHz Athlon on in-cache
  // data (FFTW-class code achieved ~150-250 Mflop/s on that part).
  double host_fft_mflops = 200.0;
  // Effective copy/stream bandwidths of the memory hierarchy (PC133-era).
  Bytes l1_size = Bytes::kib(64);
  Bytes l2_size = Bytes::kib(256);
  Bandwidth l1_bandwidth = Bandwidth::mib_per_sec(1600.0);
  Bandwidth l2_bandwidth = Bandwidth::mib_per_sec(800.0);
  Bandwidth dram_bandwidth = Bandwidth::mib_per_sec(350.0);

  // ---- Interrupts and per-packet software cost (Section 4.1). ----
  // "modern systems are incapable of handling an interrupt per packet at
  // the full data rate of Gigabit Ethernet"; drivers coalesce by count or
  // timeout.  Costs are per-interrupt service plus per-packet protocol
  // processing in the TCP/IP stack.
  Time interrupt_cost = Time::micros(12.0);
  Time per_packet_host_cost = Time::micros(4.0);
  std::size_t interrupt_coalesce_frames = 16;
  Time interrupt_coalesce_timeout = Time::micros(400.0);

  // ---- TCP behaviour over the cluster (Section 4.1 discussion). ----
  std::size_t tcp_mss = 1460;               // standard Ethernet MSS
  std::size_t tcp_initial_window_segments = 1;
  Bytes tcp_max_window = Bytes::kib(64);    // default 2001-era socket buffer
  Time tcp_min_rto = Time::millis(200);     // Linux 2.4 min RTO

  // ---- INIC protocol (Section 4.2). ----
  // "a packet size of 1024 is reasonable since each design can have a
  // protocol built directly on Ethernet"; 64 KB is the minimum card-to-
  // host DMA for efficiency (Equation 15).
  Bytes inic_packet = Bytes(1024);
  Bytes dma_efficiency_threshold = Bytes::kib(64);
  Time dma_setup = Time::micros(8.0);

  // ---- Host sorting-pipeline costs (Section 3.2 / Figure 5a). ----
  // Per-key costs of the bucket-sort distribution pass and the in-cache
  // count sort on the 1 GHz Athlon; chosen so the serial pipeline on
  // 2^25 keys reproduces Figure 5(a)'s magnitudes (count sort ~2.2 s,
  // each bucket-sort phase ~2.6 s, "over 5 seconds" of total bucket
  // sorting absorbed by the INIC per Section 4.2).
  Time bucket_sort_per_key = Time::nanos(80);
  Time count_sort_per_key = Time::nanos(65);

  // ---- Ethernet framing ----
  // Per-frame wire overhead: preamble+SFD (8) + header (14) + FCS (4) +
  // inter-frame gap (12) = 38 bytes.
  Bytes ethernet_frame_overhead = Bytes(38);
  Bytes ip_tcp_headers = Bytes(40);
  Bytes ethernet_mtu = Bytes(1500);
};

/// The default calibration used by every bench (paper values).
inline const Calibration& default_calibration() {
  static const Calibration cal{};
  return cal;
}

}  // namespace acc::model
