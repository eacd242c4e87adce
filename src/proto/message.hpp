// Application-level messages moved by the protocol stacks.
//
// The simulator separates *timing* from *data*: frames (net/frame.hpp)
// carry byte counts through the timed models, while the actual
// application payload (a block of matrix elements, a bucket of keys)
// rides the Message as a type-erased handle and is handed to the receiver
// when the protocol declares the message complete.  The Message itself
// moves from sender to receiver: the first burst carries it, and the
// receiving stack takes it out of that burst exactly once.  Correctness
// tests check these payloads end-to-end, so any mis-wiring of the data
// flow (wrong block to wrong node, missing transform) is caught
// functionally.
#pragma once

#include <any>
#include <cstdint>

#include "common/units.hpp"

namespace acc::proto {

struct Message {
  int src = -1;
  int dst = -1;
  std::uint64_t id = 0;   // unique per (src, dst) stream
  std::uint64_t tag = 0;  // application tag (e.g. transpose round, bucket)
  Bytes size = Bytes::zero();
  // Functional data; empty for timing-only runs.  Moved, never copied,
  // from the sender through the protocol stack to the receiver's inbox.
  std::any payload;
  Time sent_at = Time::zero();
  Time delivered_at = Time::zero();
};

}  // namespace acc::proto
