#include "inic/collective.hpp"

#include <algorithm>
#include <utility>

namespace acc::inic {

namespace {

using DoubleVec = std::vector<double>;
// The payload of every data-carrying tree message: one read-only buffer,
// shared by all the sends that carry it.  It is never written after
// creation, so ranks on different LPs may read it concurrently (the
// refcount is atomic).
using SharedVec = std::shared_ptr<const DoubleVec>;

Bytes vec_bytes(std::size_t elements) {
  return Bytes(elements * sizeof(double));
}

// Each collective op owns two tags in the trigger tag space: an up-phase
// tag (gather/reduce toward the root) and a down-phase tag (release /
// result broadcast).
std::uint64_t up_tag(std::uint64_t op_id) {
  return InicCard::kTriggerTagSpace | (op_id << 1);
}
std::uint64_t down_tag(std::uint64_t op_id) {
  return InicCard::kTriggerTagSpace | (op_id << 1) | 1;
}

}  // namespace

/// Shared per-op state: triggers capture it by shared_ptr so the action
/// outlives the host coroutine's stack frame.
struct CollectiveEngine::OpState {
  explicit OpState(sim::Engine& eng) : done(eng) {}
  sim::Event done;
  DoubleVec acc;            // local contribution, combined in place
  // What this card sends: its up-report or its result (acc moved in,
  // no copy), then, on a down phase, the buffer received from the
  // parent, forwarded as is.  Null until the first data send.
  SharedVec out;
  Bytes size = Bytes::zero();
  // Orphans re-parented under this card mid-collective (tree repair):
  // their up-phase message arrived from a source outside `children`, so
  // the down phase must fan out to them as well.
  std::vector<int> adopted;
};

CollectiveEngine::CollectiveEngine(InicCard& card, SendFn send, FlushFn flush)
    : card_(card), send_(std::move(send)), flush_(std::move(flush)) {}

void CollectiveEngine::post_send(int dst, Bytes size, std::uint64_t tag,
                                 std::any payload, std::vector<int> relays) {
  auto p = std::make_unique<sim::Process>(guarded_send(
      dst, size, tag, std::move(payload), std::move(relays)));
  p->start(card_.node().engine());
  firmware_.push_back(std::move(p));
}

sim::Process CollectiveEngine::guarded_send(int dst, Bytes size,
                                            std::uint64_t tag,
                                            std::any payload_arg,
                                            std::vector<int> relays) {
  // A parameter lives as long as the coroutine frame, which stays parked
  // in firmware_ until the next run() prunes it; a local dies at
  // co_return, so a finished send no longer pins its payload.
  std::any payload = std::move(payload_arg);
  sim::Engine& eng = card_.node().engine();
  const int self = card_.node().id();
  int target = dst;
  std::size_t next_relay = 0;
  for (;;) {
    // Keep the original for a relay retry only while a relay is left.
    std::any attempt =
        next_relay < relays.size() ? payload : std::move(payload);
    bool unreachable = false;
    try {
      co_await send_(target, size, tag, std::move(attempt));
      // A completed send only means the bursts left the MAC; for sends
      // that carry repair relays, wait for the credits to confirm the
      // path is actually alive (flush throws when the retry budget runs
      // dry), so a dead parent is detected even on single-burst tokens.
      if (flush_ && !relays.empty()) co_await flush_(target);
    } catch (const PeerUnreachableError&) {
      unreachable = true;  // co_await is not allowed inside a handler
    }
    if (!unreachable) co_return;
    if (next_relay >= relays.size()) {
      // No surviving ancestor left to adopt this subtree; the op stalls
      // and the run's watchdog (or the caller) surfaces the hang.
      eng.tracer().instant(trace::Category::kCollective, self,
                           "coll/repair_failed", eng.now(), target);
      co_return;
    }
    // Tree repair: re-parent this subtree under the next ancestor of the
    // dead hop and re-send the (unconsumed) message there.  The adopter's
    // trigger counts any distinct source, so the orphan's report
    // substitutes the dead rank's and the exactly-once per-source dedup
    // still holds.
    target = relays[next_relay++];
    card_.node()
        .engine()
        .counters()
        .get(trace::Category::kCollective, self, "coll/tree_repairs")
        .add(eng.now(), 1);
    eng.tracer().instant(trace::Category::kCollective, self,
                         "coll/repair_reparent", eng.now(), target);
  }
}

void CollectiveEngine::note_adopted(OpState& st,
                                    const std::vector<int>& children,
                                    int src) {
  if (src < 0) return;
  if (std::find(children.begin(), children.end(), src) != children.end()) {
    return;
  }
  if (std::find(st.adopted.begin(), st.adopted.end(), src) !=
      st.adopted.end()) {
    return;
  }
  st.adopted.push_back(src);
  sim::Engine& eng = card_.node().engine();
  eng.tracer().instant(trace::Category::kCollective, card_.node().id(),
                       "coll/adopt", eng.now(), src);
}

void CollectiveEngine::prune_firmware() {
  std::erase_if(firmware_,
                [](const std::unique_ptr<sim::Process>& p) {
                  return p->done();
                });
}

sim::Process CollectiveEngine::run(TreeOp op, TreeRole role,
                                   std::uint64_t op_id,
                                   std::vector<double>& data) {
  prune_firmware();
  auto st = std::make_shared<OpState>(card_.node().engine());
  const bool has_up = op != TreeOp::kBroadcast;
  const bool has_down = op != TreeOp::kReduce;
  const bool carries_data = op != TreeOp::kBarrier;
  const bool root = role.parent < 0;
  const std::uint64_t up = up_tag(op_id);
  const std::uint64_t down = down_tag(op_id);
  st->acc = std::move(data);
  st->size = carries_data ? vec_bytes(st->acc.size()) : Bytes(8);
  // Barrier tokens carry nothing; data ops carry the shared buffer, built
  // from acc by the first send.
  auto payload = [st, carries_data] {
    if (!carries_data) return std::any{};
    if (!st->out) {
      st->out = std::make_shared<const DoubleVec>(std::move(st->acc));
    }
    return std::any{st->out};
  };
  // Tree repair: if the parent dies, report to its ancestors in order.
  std::vector<int> relays;
  if (role.ancestors.size() > 1) {
    relays.assign(role.ancestors.begin() + 1, role.ancestors.end());
  }

  // Down phase: fan the release/result out to the subtree — to adopted
  // orphans too, since their dead parent will never forward it.
  auto fan_out = [this, st, children = role.children, down, payload]() {
    for (int child : children) post_send(child, st->size, down, payload());
    for (int orphan : st->adopted) {
      post_send(orphan, st->size, down, payload());
    }
    st->done.trigger();
  };
  if (has_down && !root) {
    card_.arm_trigger(down, 1, [st, fan_out, carries_data](
                                   proto::Message&& msg, bool) {
      if (carries_data) {
        st->out = std::any_cast<SharedVec>(std::move(msg.payload));
        st->size = msg.size;
      }
      // Cut-through: forward down the tree before the host copy.
      fan_out();
    });
  }
  if (!has_up) {
    if (root) fan_out();
  } else {
    // Up phase: gather the children's reports, then report to the parent
    // (or, at the root, start the down phase).
    auto up_complete = [this, st, parent = role.parent, root, has_down, up,
                        payload, relays, fan_out]() {
      if (!root) post_send(parent, st->size, up, payload(), relays);
      if (!has_down) {
        st->done.trigger();
      } else if (root) {
        fan_out();
      }
    };
    if (role.children.empty()) {
      up_complete();
    } else {
      card_.arm_trigger(
          up, role.children.size(),
          [this, st, children = role.children, has_down, carries_data,
           up_complete](proto::Message&& msg, bool last) {
            if (has_down) note_adopted(*st, children, msg.src);
            if (carries_data) {
              const auto partial =
                  std::any_cast<SharedVec>(std::move(msg.payload));
              // On-card combine, in arrival order (like the host
              // backend's any-child receive loop); charges no CPU time.
              for (std::size_t i = 0; i < st->acc.size(); ++i) {
                st->acc[i] += (*partial)[i];
              }
            }
            if (last) up_complete();
          });
    }
  }
  co_await st->done.wait();
  // The result crosses PCI only where the card produced it: at the root
  // after an up phase, elsewhere after a down phase.
  if (carries_data && (root ? has_up : has_down)) {
    co_await card_.dma_to_host(st->size);
  }
  // The one copy of a rank's result into its own buffer: a sent or
  // received result is shared with other ranks and stays read-only.
  if (!(root || has_down)) {
    data.clear();
  } else if (st->out) {
    data = *st->out;
  } else {
    data = std::move(st->acc);
  }
}

}  // namespace acc::inic
