// NIC-resident tree collectives (barrier / broadcast / reduce /
// allreduce) built on InicCard's trigger primitives.
//
// The model follows Yu et al.'s NIC-based collective protocol: each card
// holds one role of a topology-aware binomial tree, and the per-hop
// forward/combine steps run on the card the moment a matching message
// finishes assembly — no host CPU time is charged and no interrupt is
// raised anywhere on the path.  Every op is the same up/down walk: an up
// phase gathers (and, for data ops, combines) toward the root, a down
// phase fans the release or result back out; an op runs one or both.
// The host rank only (a) kicks the operation off by arming its card's
// triggers and posting its own contribution, and (b) awaits the
// completion event; when its result was produced on the card it
// additionally pays the final card-to-host DMA.
//
// Sends go through a SendFn supplied by SimCluster (bound to
// SimCluster::transfer), so a card lost to a reset window transparently
// re-carries its forwards over the degraded TCP fallback plane.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "inic/card.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"

namespace acc::inic {

/// The tree collectives.  Up phase (children toward the root): barrier,
/// reduce, allreduce.  Down phase (root toward the leaves): barrier,
/// broadcast, allreduce.  Barrier moves 8-byte tokens; the others carry
/// the vector.
enum class TreeOp { kBarrier, kBroadcast, kReduce, kAllreduce };

/// One card's role in a binomial spanning tree: physical parent id (-1
/// at the root) and physical children ids in ascending-mask order.
/// `ancestors` is the full chain toward the root — ancestors[0] is the
/// parent, the last entry the root — and powers mid-collective tree
/// repair: a parent-directed send that fails with PeerUnreachableError
/// re-targets the next ancestor (re-parenting the orphaned subtree),
/// and the adopting card's down phase forwards the release/result to
/// adopted orphans alongside its own children.  Empty on the root, and
/// may be left empty anywhere to disable repair for that rank.
struct TreeRole {
  int parent = -1;
  std::vector<int> children;
  std::vector<int> ancestors;
};

class CollectiveEngine {
 public:
  /// Posts one message toward `dst`; SimCluster binds this to
  /// transfer(), which falls back to TCP when the INIC path is down.
  using SendFn = std::function<sim::Process(int dst, Bytes size,
                                            std::uint64_t tag,
                                            std::any payload)>;
  /// Delivery confirmation for a completed send (bound to
  /// InicCard::flush): completes once the message is credited back,
  /// throws PeerUnreachableError when the peer is given up on.  Sends
  /// with repair relays await it so a fire-and-forget burst that died on
  /// a dark path still re-parents its subtree.  Leave unset when another
  /// plane guarantees delivery (SimCluster's degraded TCP fallback) —
  /// confirming there would mis-read the fallback's success as a dead
  /// hop and spuriously re-parent.
  using FlushFn = std::function<sim::Process(int dst)>;

  CollectiveEngine(InicCard& card, SendFn send, FlushFn flush = {});
  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;

  /// Runs one tree op on this card; the returned process completes when
  /// the rank's part is done.  Barrier: when the release token arrives
  /// (root: when every subtree has reported in); `data` is ignored.
  /// Broadcast: non-roots end with the root's `data`.  Reduce: children
  /// partials are summed on the card in arrival order; the root ends
  /// with the global sum, other ranks surrender their buffer (cleared),
  /// matching the host backend's reduce contract.  Allreduce: every rank
  /// ends with the root's sum.
  sim::Process run(TreeOp op, TreeRole role, std::uint64_t op_id,
                   std::vector<double>& data);

 private:
  struct OpState;

  /// Fires a detached forward send from the card; the Process wrapper is
  /// parked in firmware_ so its frame outlives the caller.  `relays` are
  /// fallback targets tried in order when a hop fails terminally with
  /// PeerUnreachableError (tree repair: the dead parent's ancestors).
  void post_send(int dst, Bytes size, std::uint64_t tag, std::any payload,
                 std::vector<int> relays = {});
  /// The detached coroutine behind post_send: swallows
  /// PeerUnreachableError (a detached process failing would abort the
  /// whole run) and walks the relay chain instead.
  sim::Process guarded_send(int dst, Bytes size, std::uint64_t tag,
                            std::any payload, std::vector<int> relays);
  /// Up-phase bookkeeping: a trigger message from a non-child source is
  /// an orphan re-parented under us; remember it so the down phase
  /// forwards the release/result to its subtree too.
  void note_adopted(OpState& st, const std::vector<int>& children, int src);
  void prune_firmware();

  InicCard& card_;
  SendFn send_;
  FlushFn flush_;
  // Detached in-flight forwards (the "firmware" activity of this card).
  std::vector<std::unique_ptr<sim::Process>> firmware_;
};

}  // namespace acc::inic
