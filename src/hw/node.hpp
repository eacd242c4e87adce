// A cluster node: CPU + memory hierarchy + shared PCI bus + DMA engine.
//
// Matches the prototype of Section 5: "a 32-bit PCI motherboard with a
// 1 GHz Athlon and 512 MB of RAM"; every device (standard NIC or INIC)
// reaches host memory across the single PCI bus, so NIC DMA and INIC DMA
// contend here exactly as the paper discusses.
#pragma once

#include <memory>
#include <string>

#include "common/units.hpp"
#include "hw/cpu.hpp"
#include "hw/dma.hpp"
#include "model/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace acc::hw {

/// Holds a reference to the calibration every device on the node reads
/// (the CPU, the DMA engine, and the NIC, TCP stack or INIC card built on
/// it); the calibration must outlive the node and its devices (a
/// temporary does not compile).
class Node {
 public:
  Node(sim::Engine& eng, int id,
       const model::Calibration& cal = model::default_calibration())
      : id_(id),
        eng_(eng),
        cal_(cal),
        cpu_(eng, cal, id),
        pci_(eng, cal.host_pci_bus, "pci-node" + std::to_string(id)),
        dma_(pci_, cal, id) {}
  Node(sim::Engine&, int, const model::Calibration&&) = delete;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }
  sim::Engine& engine() { return eng_; }
  const model::Calibration& calibration() const { return cal_; }
  Cpu& cpu() { return cpu_; }
  sim::FifoResource& pci_bus() { return pci_; }
  DmaEngine& dma() { return dma_; }

 private:
  int id_;
  sim::Engine& eng_;
  const model::Calibration& cal_;
  Cpu cpu_;
  sim::FifoResource pci_;
  DmaEngine dma_;
};

}  // namespace acc::hw
