#include "net/lp_workload.hpp"

#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "net/lp_map.hpp"
#include "sim/parallel.hpp"
#include "trace/trace.hpp"

namespace acc::net {

namespace {

/// Everything a hop event needs, shared read-only across LPs (the plan
/// and partition never mutate during a run) plus per-LP mutable state
/// that only events executing on that LP touch.
struct Workload {
  const LpWorkloadConfig& cfg;
  TopologyPlan plan;
  LpPartition part;
  sim::ParallelEngine* peng = nullptr;

  /// Cache-line sized so two LPs running on different workers never
  /// write the same line.
  struct alignas(64) LpState {
    std::uint64_t checksum = 0;
    std::uint64_t delivered = 0;
    std::uint64_t hops = 0;
  };
  std::vector<LpState> lps;

  explicit Workload(const LpWorkloadConfig& c)
      : cfg(c),
        plan(build_topology(c.topology, c.hosts)),
        part(build_lp_partition(plan, c.link_latency)) {
    lps.resize(part.lp_count);
  }
};

struct Frame {
  std::uint64_t id = 0;
  std::int32_t dst = 0;
  std::int32_t sw = 0;
  std::uint16_t hop = 0;
};

/// Deterministic per-hop forwarding cost: a short xorshift spin seeded
/// from the frame and switch, folded into the LP's checksum so the
/// compiler cannot elide it and tests can compare it across thread
/// counts.
std::uint64_t spin(std::uint64_t x, std::uint32_t rounds) {
  x |= 1;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

void hop(Workload& w, Frame f);

/// Schedules the next traversal: same-LP forwards go through the plain
/// engine path, LP crossings through the conservative mailbox.
void forward(Workload& w, std::size_t src_lp, std::size_t dst_lp, Time delay,
             Frame f) {
  Workload* wp = &w;
  if (src_lp == dst_lp) {
    w.peng->lp(src_lp).schedule(delay, [wp, f] { hop(*wp, f); });
  } else {
    w.peng->post(src_lp, dst_lp, delay, [wp, f] { hop(*wp, f); });
  }
}

void hop(Workload& w, Frame f) {
  const auto sw = static_cast<std::size_t>(f.sw);
  const std::size_t lp = w.part.lp_of_switch[sw];
  Workload::LpState& st = w.lps[lp];
  sim::Engine& eng = w.peng->lp(lp);

  st.checksum ^= spin(f.id * 0x9E3779B97F4A7C15ULL + sw, w.cfg.switch_work);
  ++st.hops;
  if (eng.tracer().enabled()) {
    eng.tracer().instant(trace::Category::kNet, f.sw, "lpw/hop", eng.now(),
                         static_cast<std::int64_t>(f.id * 256 + f.hop));
  }

  const std::size_t port = w.plan.port_to(f.sw, f.dst);
  const TopologyPlan::Port& out = w.plan.switches[sw].ports[port];
  if (out.host >= 0) {
    // Final hop: the destination host hangs off this switch's LP.
    ++st.delivered;
    if (eng.tracer().enabled()) {
      eng.tracer().instant(trace::Category::kNet, out.host, "lpw/deliver",
                           eng.now(), static_cast<std::int64_t>(f.id));
    }
    return;
  }
  Frame next = f;
  next.sw = out.peer_switch;
  ++next.hop;
  const std::size_t dst_lp =
      w.part.lp_of_switch[static_cast<std::size_t>(out.peer_switch)];
  forward(w, lp, dst_lp, dst_lp == lp ? w.cfg.forward_latency : w.cfg.link_latency,
          next);
}

}  // namespace

LpWorkloadResult run_lp_workload(const LpWorkloadConfig& cfg,
                                 std::size_t threads) {
  if (cfg.hosts < 2) {
    throw std::invalid_argument("run_lp_workload: need at least two hosts");
  }
  Workload w(cfg);

  sim::ParallelConfig pcfg;
  pcfg.threads = threads;
  pcfg.lookahead = w.part.lookahead;  // zero only in the single-LP star
  sim::ParallelEngine peng(w.part.lp_count, pcfg);
  w.peng = &peng;
  if (cfg.trace) {
    for (std::size_t i = 0; i < peng.lp_count(); ++i) {
      peng.lp(i).tracer().enable(/*ring_capacity=*/64);
    }
  }

  // Pre-materialized seeded injections, host-major: the schedule is laid
  // down before the first window, so it never depends on execution
  // interleaving.
  const std::uint64_t spread =
      static_cast<std::uint64_t>(cfg.inject_spread.as_nanos());
  std::uint64_t id = 0;
  for (std::size_t h = 0; h < cfg.hosts; ++h) {
    Rng rng(cfg.seed ^ (0xA24BAED4963EE407ULL + h * 0x9FB21C651E98DF25ULL));
    const std::size_t lp = w.part.lp_of_host[h];
    const int edge_sw = w.plan.hosts[h].sw;
    for (std::size_t k = 0; k < cfg.frames_per_host; ++k) {
      std::uint64_t dst = rng.below(cfg.hosts - 1);
      if (dst >= h) ++dst;  // never self
      const Time at = Time::nanos(
          static_cast<std::int64_t>(spread > 0 ? rng.below(spread) : 0));
      Frame f;
      f.id = id++;
      f.dst = static_cast<std::int32_t>(dst);
      f.sw = edge_sw;
      Workload* wp = &w;
      peng.lp(lp).schedule_at(at, [wp, f] { hop(*wp, f); });
    }
  }

  LpWorkloadResult out;
  out.sim_time = peng.run();
  out.digest = peng.combined_digest();
  out.events = peng.events_executed();
  out.windows = peng.windows();
  out.cross_posts = peng.cross_posts();
  out.lp_count = peng.lp_count();
  for (std::size_t i = 0; i < peng.lp_count(); ++i) {
    out.trace_records += peng.lp(i).tracer().records_emitted();
  }
  for (const Workload::LpState& st : w.lps) {
    // LP-order fold: thread-count independent.
    out.checksum = out.checksum * 1099511628211ULL + st.checksum;
    out.delivered += st.delivered;
    out.hops += st.hops;
  }
  return out;
}

}  // namespace acc::net
