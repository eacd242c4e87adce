// DMA engine over a shared PCI bus.
//
// Equation (15) of the paper assumes a 64 KB minimum card-to-host
// transfer "to ensure efficiency of the DMA operation": every DMA has a
// fixed setup cost (descriptor fetch, bus arbitration), so small
// transfers waste bus time.  The model charges setup + payload per chunk
// on the FCFS bus resource, which yields exactly that efficiency curve.
#pragma once

#include <cassert>

#include "common/units.hpp"
#include "model/calibration.hpp"
#include "sim/resource.hpp"

namespace acc::hw {

/// Pays Calibration::dma_setup per burst and issues bursts of at most
/// Calibration::dma_efficiency_threshold bytes, splitting bigger requests.
/// The calibration must outlive the engine.
class DmaEngine {
 public:
  DmaEngine(sim::FifoResource& bus, const model::Calibration& cal,
            int node_id = -1)
      : bus_(bus), cal_(cal), node_id_(node_id) {
    assert(max_burst().count() > 0);
  }

  /// Awaitable transfer of `size` bytes, split into bursts, each paying
  /// the setup cost.  Queues FCFS on the underlying bus.
  sim::DelayUntil transfer(Bytes size) {
    return sim::DelayUntil{bus_engine(), enqueue(size)};
  }

  /// Books the transfer and returns its completion time (for pipelined
  /// device models that wait later).
  Time enqueue(Bytes size) {
    const Time start = bus_.available_at();
    Time done = start;
    std::uint64_t remaining = size.count();
    const std::uint64_t burst = max_burst().count();
    do {
      const std::uint64_t this_burst = remaining < burst ? remaining : burst;
      bus_.enqueue_duration(setup());
      done = bus_.enqueue(Bytes(this_burst));
      remaining -= this_burst;
    } while (remaining > 0);
    // One span per transfer, covering every setup+payload burst it was
    // split into (the bus is FCFS, so [start, done) is exact).
    bus_engine().tracer().span(trace::Category::kDma, node_id_, "dma/transfer",
                               start, done - start,
                               static_cast<std::int64_t>(size.count()));
    return done;
  }

  /// Fraction of bus time spent on payload (vs. setup) for transfers of
  /// the given size — the quantity Equation (15)'s 64 KB threshold
  /// protects.  Pure arithmetic; used by models and the ablation bench.
  double efficiency(Bytes transfer_size) const {
    if (transfer_size.count() == 0) return 0.0;
    const double payload =
        transfer_time(transfer_size, bus_.rate()).as_seconds();
    const auto bursts =
        (transfer_size.count() + max_burst().count() - 1) / max_burst().count();
    const double overhead = setup().as_seconds() * static_cast<double>(bursts);
    return payload / (payload + overhead);
  }

  /// Fixed cost of every burst (descriptor fetch, bus arbitration).
  Time setup() const { return cal_.dma_setup; }
  Bytes max_burst() const { return cal_.dma_efficiency_threshold; }

 private:
  sim::Engine& bus_engine() { return bus_.engine(); }

  sim::FifoResource& bus_;
  const model::Calibration& cal_;
  int node_id_;
};

}  // namespace acc::hw
