// Umbrella header for the ACC / Intelligent-NIC reproduction library.
//
// Layering (bottom up):
//   common/  units, RNG, table printing
//   sim/     discrete-event engine, coroutine processes, channels,
//            FIFO bandwidth resources, synchronization
//   hw/      host models: CPU, memory hierarchy, PCI bus, DMA,
//            interrupt coalescing, node assembly
//   net/     frames, switch-based star network, standard NIC
//   proto/   simplified TCP (baseline transport), message types
//   inic/    the Intelligent NIC device model (ideal + ACEII prototype)
//   algo/    real algorithms: FFT, transpose decomposition, sorts
//   apps/    distributed 2D-FFT and integer sort on simulated clusters
//   model/   the paper's analytic models (Equations 3-17) + calibration
//   core/    post-run instrumentation reports (ClusterReport)
//   trace/   deterministic event tracing + counters (any layer may emit)
//   fault/   deterministic fault injection (scripted windows + seeded
//            loss processes) against whole cluster runs
#pragma once

#include "algo/fft.hpp"
#include "algo/matrix.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "apps/cluster.hpp"
#include "apps/fft_app.hpp"
#include "apps/kv_app.hpp"
#include "apps/sort_app.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/report.hpp"
#include "fault/fault.hpp"
#include "hw/node.hpp"
#include "inic/card.hpp"
#include "model/calibration.hpp"
#include "model/fft_model.hpp"
#include "model/sort_model.hpp"
#include "net/network.hpp"
#include "net/nic.hpp"
#include "proto/tcp.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"
