// Shared fabric-test helpers: an endpoint that records every frame the
// fabric delivers to it, with its arrival time, and a frame builder.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "net/frame.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace acc::net::test {

class RecordingEndpoint : public Endpoint {
 public:
  explicit RecordingEndpoint(sim::Engine& eng) : eng_(eng) {}
  void deliver(const Frame& frame) override {
    frames.push_back(frame);
    times.push_back(eng_.now());
  }
  std::vector<Frame> frames;
  std::vector<Time> times;

 private:
  sim::Engine& eng_;
};

/// A data frame of `packets` wire packets, each paying 38 bytes of
/// Ethernet framing.
inline Frame make_frame(int src, int dst, Bytes payload = Bytes(1024),
                        std::size_t packets = 1) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.payload = payload;
  f.wire = payload + Bytes(38 * packets);
  f.packet_count = packets;
  return f;
}

}  // namespace acc::net::test
