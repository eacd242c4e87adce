#include "apps/cluster.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

#include "sim/parallel.hpp"

namespace acc::apps {

namespace {

/// Trace-file numbering for ACC_TRACE output.  Process-wide and atomic:
/// concurrent SimCluster teardowns (src/runner/ sweeps) each claim a
/// distinct index without racing.  Indices are assigned in destruction
/// order, start at 1 (which writes the bare <path>; later ones append
/// ".2", ".3", ...), and never reset for the lifetime of the process —
/// so filenames are unique but their order reflects teardown order, not
/// construction order, when clusters are torn down concurrently.
int next_trace_file_index() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Forwards every message the fallback TCP plane completes into the card
/// inbox, so INIC receivers never need to know which plane carried a
/// message.  Runs forever; parked on an empty channel it holds no pending
/// events, so it cannot keep the engine alive.
sim::Process pump_fallback(proto::TcpStack& tcp, inic::InicCard& card) {
  for (;;) {
    proto::Message msg = co_await tcp.inbox().recv();
    // accept_message routes collective trigger tags through the card's
    // trigger table and everything else into the card inbox, so on-card
    // collectives survive a fallback re-carry too.
    card.accept_message(std::move(msg));
  }
}

}  // namespace

const TraceEnv& trace_env() {
  // Captured exactly once, on the first SimCluster construction in the
  // process (thread-safe magic static).  Every later construction and
  // destruction reads this immutable snapshot, so concurrent cluster
  // construction never calls getenv (which races with any setenv in the
  // process), and the construction-time and destruction-time views of
  // ACC_TRACE cannot disagree.
  static const TraceEnv env = [] {
    TraceEnv e;
    if (const char* path = std::getenv("ACC_TRACE"); path && *path) {
      e.trace_json = true;
      e.trace_path = path;
    }
    if (const char* flag = std::getenv("ACC_TRACE_DIGEST");
        flag && *flag && *flag != '0') {
      e.trace_digest = true;
    }
    return e;
  }();
  return env;
}

const char* to_string(Interconnect ic) {
  switch (ic) {
    case Interconnect::kFastEthernetTcp:
      return "Fast Ethernet (TCP)";
    case Interconnect::kGigabitTcp:
      return "Gigabit Ethernet (TCP)";
    case Interconnect::kInicIdeal:
      return "INIC (ideal)";
    case Interconnect::kInicPrototype:
      return "INIC (prototype ACEII)";
  }
  return "?";
}

bool is_inic(Interconnect ic) {
  return ic == Interconnect::kInicIdeal || ic == Interconnect::kInicPrototype;
}

const char* to_string(CollectiveBackend backend) {
  switch (backend) {
    case CollectiveBackend::kHost:
      return "host";
    case CollectiveBackend::kNic:
      return "nic";
  }
  return "?";
}

SimCluster::SimCluster(std::size_t n, Interconnect ic,
                       const model::Calibration& cal,
                       const ClusterOptions& opts)
    : ic_(ic), cal_(cal), opts_(opts) {
  if (opts_.collective_backend == CollectiveBackend::kNic && !is_inic(ic)) {
    throw std::invalid_argument(
        "ClusterOptions::collective_backend = kNic requires an INIC "
        "interconnect (the collective state machines live on the cards)");
  }
  if (opts_.engine_threads == 0) {
    throw std::invalid_argument("ClusterOptions::engine_threads must be >= 1");
  }
  net::NetworkConfig net_cfg;
  net_cfg.line_rate = ic == Interconnect::kFastEthernetTcp
                          ? cal.fast_ethernet_line_rate
                          : cal.gigabit_line_rate;
  net_cfg.switch_latency = cal.switch_latency;
  net_cfg.port_buffer = cal.switch_port_buffer;
  net_cfg.topology = opts_.topology;
  net_cfg.adaptive_routing = opts_.adaptive_routing;

  // The partition decides how the cluster runs (ClusterOptions::
  // engine_threads): one LP per switch, hosts on their edge switch's LP,
  // when threads >= 2 on a multi-switch fabric with no cross-LP-mutating
  // feature; otherwise one LP holding every switch and host.  The first
  // rule that forces one LP names the choice.
  net::TopologyPlan plan = net::build_topology(net_cfg.topology, n);
  bool per_switch = false;
  if (opts_.engine_threads <= 1) {
    partition_reason_ = "one LP: engine_threads <= 1";
  } else if (plan.switches.size() <= 1) {
    partition_reason_ = "one LP: single switch";
  } else if (opts_.adaptive_routing) {
    partition_reason_ = "one LP: adaptive routing";
  } else if (is_inic(ic) && opts_.degraded_fallback) {
    partition_reason_ = "one LP: degraded fallback";
  } else {
    partition_reason_ = "per-switch";
    per_switch = true;
  }
  if (per_switch) {
    // The delay a frame needs to become visible at the peer switch —
    // link propagation plus the peer's forwarding latency, exactly what
    // forward_at() posts cross-LP hops with.
    partition_ = net::build_lp_partition(
        plan, net_cfg.link_latency + net_cfg.switch_latency);
  } else {
    partition_ = net::single_lp_partition(plan);
  }
  sim::ParallelConfig pcfg;
  pcfg.threads = opts_.engine_threads;
  pcfg.lookahead = partition_.lookahead;
  parallel_ = std::make_unique<sim::ParallelEngine>(partition_.lp_count, pcfg);

  // Environment-driven tracing (documented on tracer()): any existing
  // example or benchmark can be traced without code changes.  The
  // environment is captured once per process (see trace_env()).  Every
  // LP lane is armed so the combined digest covers the full event
  // stream.
  const TraceEnv& env = trace_env();
  if (env.trace_json) {
    env_trace_json_ = true;
    enable_tracing();
  }
  if (env.trace_digest) {
    env_trace_digest_ = true;
    // A tiny ring suffices: the digest covers every emitted record
    // regardless of retention.
    if (!engine().tracer().enabled()) enable_tracing(/*ring_capacity=*/64);
  }

  network_ = std::make_unique<net::Network>(*parallel_, partition_,
                                            std::move(plan), net_cfg);

  // Pre-size each LP's event heap from the materialized topology: per-
  // node protocol machinery (timers, coroutine resumes) plus frames
  // queued across the LP's switch ports bound the events simultaneously
  // in flight, so a big-fabric run never re-grows a heap mid-window.
  // reserve() is pure capacity — dispatch order and digests are
  // unaffected (pinned by the heap's reserve-invariance test).
  std::vector<std::size_t> heap_size(partition_.lp_count, 64);
  for (std::size_t sw = 0; sw < partition_.lp_of_switch.size(); ++sw) {
    heap_size[partition_.lp_of_switch[sw]] +=
        4 * network_->plan().switches[sw].ports.size();
  }
  for (const std::size_t lp : partition_.lp_of_host) heap_size[lp] += 16;
  for (std::size_t lp = 0; lp < partition_.lp_count; ++lp) {
    parallel_->lp(lp).reserve(heap_size[lp]);
  }

  for (std::size_t i = 0; i < n; ++i) {
    // The node's whole device complex (CPU, PCI, DMA, and the card/NIC/
    // TCP machinery built on it below) binds to its edge switch's LP
    // engine, so every event it schedules is LP-local.  Every device reads
    // the cluster's one copy of the calibration.
    nodes_.push_back(std::make_unique<hw::Node>(node_engine(i),
                                                static_cast<int>(i), cal_));
  }

  if (is_inic(ic)) {
    inic::InicConfig card_cfg;
    card_cfg.prototype = ic == Interconnect::kInicPrototype;
    card_cfg.hw_retransmit = opts_.inic_hw_retransmit;
    card_cfg.max_retries = opts_.inic_max_retries;
    card_cfg = card_cfg.tuned_for(n, cal_);
    for (std::size_t i = 0; i < n; ++i) {
      cards_.push_back(
          std::make_unique<inic::InicCard>(*nodes_[i], *network_, card_cfg));
    }
    // Pre-size the collective-engine table: collective_engine(i) may be
    // called from rank coroutines running on different LPs, and a lazy
    // resize there would move slots out from under concurrent readers.
    collective_engines_.resize(n);
    if (opts_.degraded_fallback) {
      // Degraded-mode plane: its own switch (Network::attach allows one
      // endpoint per port), standard NICs and TCP stacks on the same
      // nodes, and a pump per node forwarding completed TCP deliveries
      // into the card inbox so receivers are transport-agnostic.
      // Degraded fallback always runs on one LP, so the plane shares the
      // cluster's partition and engine().
      fallback_net_ = std::make_unique<net::Network>(
          *parallel_, partition_, network_->plan(), net_cfg);
      for (std::size_t i = 0; i < n; ++i) {
        fallback_nics_.push_back(
            std::make_unique<net::StandardNic>(*nodes_[i], *fallback_net_));
        fallback_tcp_.push_back(std::make_unique<proto::TcpStack>(
            *nodes_[i], *fallback_nics_[i]));
        fallback_pumps_.push_back(std::make_unique<sim::Process>(
            pump_fallback(*fallback_tcp_[i], *cards_[i])));
        fallback_pumps_.back()->start(engine());
      }
      fallback_transfers_ = &engine().counters().get(trace::Category::kApp, -1,
                                                 "app/fallback_transfers");
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      nics_.push_back(
          std::make_unique<net::StandardNic>(*nodes_[i], *network_));
      tcp_.push_back(std::make_unique<proto::TcpStack>(*nodes_[i], *nics_[i]));
    }
  }
}

Time SimCluster::run() { return parallel_->run(); }

void SimCluster::enable_tracing(std::size_t ring_capacity) {
  for (std::size_t lp = 0; lp < parallel_->lp_count(); ++lp) {
    parallel_->lp(lp).tracer().enable(ring_capacity);
  }
}

std::uint64_t SimCluster::trace_records() const {
  std::uint64_t total = 0;
  for (std::size_t lp = 0; lp < parallel_->lp_count(); ++lp) {
    total += parallel_->lp(lp).tracer().records_emitted();
  }
  return total;
}

void SimCluster::write_chrome_json(std::ostream& os) const {
  std::vector<const trace::Tracer*> lanes;
  for (std::size_t lp = 0; lp < parallel_->lp_count(); ++lp) {
    lanes.push_back(&parallel_->lp(lp).tracer());
  }
  trace::write_chrome_json(os, lanes, digest(), trace_records());
}

std::vector<trace::CounterSample> SimCluster::counters_snapshot() {
  // Deterministic merge: every lane's snapshot is already in (category,
  // node, name) order and each lane's totals are thread-count
  // independent, so summing by key into an ordered map gives one merged
  // view identical for any worker count.
  std::map<std::tuple<trace::Category, int, std::string>, std::uint64_t> sum;
  for (std::size_t lp = 0; lp < parallel_->lp_count(); ++lp) {
    for (const auto& s : parallel_->lp(lp).counters().snapshot()) {
      sum[{s.category, s.node, s.name}] += s.value;
    }
  }
  std::vector<trace::CounterSample> out;
  out.reserve(sum.size());
  for (const auto& [key, value] : sum) {
    out.push_back(trace::CounterSample{std::get<0>(key), std::get<1>(key),
                                       std::get<2>(key), value});
  }
  return out;
}

sim::Channel<proto::Message>& SimCluster::inbox(std::size_t i) {
  return is_inic(ic_) ? cards_.at(i)->card_inbox() : tcp_.at(i)->inbox();
}

std::uint64_t SimCluster::fallback_transfers() const {
  return fallback_transfers_ ? fallback_transfers_->value() : 0;
}

inic::CollectiveEngine& SimCluster::collective_engine(std::size_t i) {
  if (!is_inic(ic_)) {
    throw std::logic_error(
        "collective_engine(): no INIC cards on this interconnect");
  }
  auto& slot = collective_engines_.at(i);  // pre-sized in the ctor
  if (!slot) {
    const int src = static_cast<int>(i);
    // Delivery confirmation is only wired up when the card itself is the
    // sole carrier: with the degraded TCP fallback on, transfer() already
    // guarantees delivery, and confirming against the card would mis-read
    // a fallback-carried message as a dead hop.
    inic::CollectiveEngine::FlushFn flush;
    if (!opts_.degraded_fallback) {
      flush = [this, src](int dst) { return cards_.at(src)->flush(dst); };
    }
    slot = std::make_unique<inic::CollectiveEngine>(
        *cards_.at(i),
        [this, src](int dst, Bytes size, std::uint64_t tag,
                    std::any payload) {
          return transfer(src, dst, size, tag, std::move(payload));
        },
        std::move(flush));
  }
  return *slot;
}

void SimCluster::note_fallback(int src, Bytes size) {
  sim::Engine& eng = engine();
  fallback_transfers_->add(eng.now(), 1);
  eng.tracer().instant(trace::Category::kApp, src, "app/fallback_transfer",
                       eng.now(), static_cast<std::int64_t>(size.count()));
}

sim::Process SimCluster::transfer(int src, int dst, Bytes size,
                                  std::uint64_t tag, std::any payload) {
  if (!is_inic(ic_)) {
    co_await tcp_.at(src)->send_message(dst, size, tag, std::move(payload));
    co_return;
  }
  inic::InicCard& card_src = *cards_.at(src);
  if (!opts_.degraded_fallback) {
    co_await card_src.send_stream(dst, size, tag, std::move(payload));
    co_return;
  }
  if (card_src.in_reset() || cards_.at(dst)->in_reset() ||
      card_src.peer_unreachable(dst)) {
    note_fallback(src, size);
    co_await fallback_tcp_.at(src)->send_message(dst, size, tag,
                                                 std::move(payload));
    co_return;
  }
  // Healthy at send time, but the card may still give up mid-stream; keep
  // a copy of the payload so the whole message can be re-carried by TCP.
  // (If the peer had in fact consumed the message and only the credits
  // were lost, this re-carry duplicates it — at-least-once in that corner;
  // see docs/FAULTS.md.)
  std::any copy = payload;
  bool rerouted = false;
  try {
    co_await card_src.send_stream(dst, size, tag, std::move(payload));
  } catch (const inic::PeerUnreachableError&) {
    rerouted = true;  // co_await is not allowed inside a handler
  }
  if (rerouted) {
    note_fallback(src, size);
    co_await fallback_tcp_.at(src)->send_message(dst, size, tag,
                                                 std::move(copy));
  }
}

SimCluster::~SimCluster() {
  if (env_trace_json_) {
    std::string path = trace_env().trace_path;
    const int index = next_trace_file_index();
    if (index > 1) path += "." + std::to_string(index);
    std::ofstream out(path);
    if (out) write_chrome_json(out);
  }
  if (env_trace_digest_) {
    // digest() on one LP is the plain engine tracer digest (the golden-
    // pinned value).
    std::fprintf(stderr, "acc-trace-digest %016llx\n",
                 static_cast<unsigned long long>(digest()));
  }
}

}  // namespace acc::apps
