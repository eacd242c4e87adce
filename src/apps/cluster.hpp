// Simulated-cluster assembly used by the application drivers: N nodes
// on the fabric ClusterOptions::topology describes (one switch by
// default), equipped either with standard NICs + TCP (the baseline) or
// with INICs (the proposed architecture).
#pragma once

#include <any>
#include <memory>
#include <string>
#include <vector>

#include "hw/node.hpp"
#include "inic/card.hpp"
#include "inic/collective.hpp"
#include "model/calibration.hpp"
#include "net/lp_map.hpp"
#include "net/network.hpp"
#include "net/nic.hpp"
#include "proto/tcp.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace acc::apps {

/// Which interconnect technology a cluster run uses (Figure 8's x axis
/// families).
enum class Interconnect {
  kFastEthernetTcp,   // 100 Mb/s, standard NIC, TCP
  kGigabitTcp,        // 1 Gb/s, standard NIC, TCP
  kInicIdeal,         // 1 Gb/s, idealized INIC (Section 4)
  kInicPrototype,     // 1 Gb/s, ACEII prototype INIC (Sections 5-6)
};

const char* to_string(Interconnect ic);
bool is_inic(Interconnect ic);

/// Where collective operations (src/collectives/) execute.
enum class CollectiveBackend {
  kHost,  // host-driven send/recv loops (today's code path)
  kNic,   // card-resident trigger state machines (inic/collective.hpp)
};

const char* to_string(CollectiveBackend backend);

/// Immutable snapshot of the trace-related environment variables
/// (ACC_TRACE / ACC_TRACE_DIGEST), captured once per process at first
/// use.  SimCluster construction *and* destruction both read this
/// snapshot — never getenv directly — so concurrent cluster construction
/// (src/runner/ sweeps) cannot race on environment access, and the two
/// read sites cannot observe different values if the environment mutates
/// mid-process.  Consequence: changing these variables after the first
/// SimCluster has been constructed has no effect for the rest of the
/// process.
struct TraceEnv {
  bool trace_json = false;     // ACC_TRACE set and non-empty
  std::string trace_path;      // its value (Chrome JSON output path)
  bool trace_digest = false;   // ACC_TRACE_DIGEST set and != "0"
};

/// The process-wide snapshot (thread-safe; captured on first call).
const TraceEnv& trace_env();

/// Robustness knobs for a cluster run (all off by default, which keeps
/// the paper's healthy-fabric model and its trace digests bit-identical).
struct ClusterOptions {
  /// Enables the INIC cards' go-back-N error handling.  Required for any
  /// run with injected faults; off by default because the protocol is
  /// lossless by construction on a healthy fabric.
  bool inic_hw_retransmit = false;
  /// Go-back-N retry budget per destination (0 = retry forever).
  std::size_t inic_max_retries = 0;
  /// Degraded-mode fallback: builds a parallel standard-NIC + TCP plane
  /// and reroutes transfer()s over it whenever the source or destination
  /// card is in a reset window — or mid-transfer, when the card declares
  /// the peer unreachable.  The apps and both collective backends send
  /// through transfer(), so all of them reroute.  INIC interconnects
  /// only; no effect otherwise.
  bool degraded_fallback = false;
  /// Fabric shape (net/topology.hpp): single star by default — the
  /// paper's 8-16 node prototype — or a fat-tree / torus for the scaling
  /// studies.  Protocol timers (TCP RTO, INIC go-back-N) seed from the
  /// fabric's per-path latency, so multi-hop topologies work unchanged.
  net::TopologyConfig topology{};
  /// Fault-aware adaptive routing (net::NetworkConfig::adaptive_routing):
  /// the fabric tracks per-interior-link health and re-converges its
  /// next-port tables around declared failures, and the INIC/TCP retry
  /// planes may request a reroute instead of failing terminally.  Off by
  /// default — static tables, zero kRouting records, digests
  /// bit-identical.
  bool adaptive_routing = false;
  /// Collective execution backend.  kNic requires an INIC interconnect
  /// (the state machines live on the cards); the default keeps every
  /// existing run — and its trace digest — bit-identical.
  CollectiveBackend collective_backend = CollectiveBackend::kHost;
  /// Worker threads for the parallel event engine (sim/parallel.hpp); 0
  /// means 1.  Every cluster runs on an LP partition (net/lp_map.hpp),
  /// and this value picks it.  Per-switch when >= 2 on a multi-switch
  /// fabric with neither adaptive routing nor degraded fallback: each
  /// switch is an LP and each host's devices (CPU/DMA/IRQ machinery,
  /// INIC card or NIC+TCP stack) live on its edge switch's LP.  One LP
  /// in every other case, which is event-for-event the historical serial
  /// run, so the golden digest pins hold.  Per-switch runs produce one
  /// combined digest for any threads >= 2, and their merged counter
  /// totals equal the one-LP run's (docs/TRACING.md, pinned by
  /// tests/parallel_scaling_test.cpp).
  std::size_t engine_threads = 1;
};

/// A fully wired simulated cluster.  Exactly one of (nics+tcp) / cards is
/// populated, depending on the interconnect.
class SimCluster {
 public:
  SimCluster(std::size_t n, Interconnect ic,
             const model::Calibration& cal = model::default_calibration(),
             const ClusterOptions& opts = {});

  /// Flushes environment-requested trace output (see ctor notes).
  ~SimCluster();

  /// LP 0's engine: on a one-LP partition, the engine the whole cluster
  /// runs on.
  sim::Engine& engine() { return parallel_->lp(0); }

  /// The window scheduler owning every LP engine (never null).  Workload
  /// drivers bind their ProcessGroup to it and spawn_on(node_lp(i), ...)
  /// so each rank's process executes on the LP owning that rank's
  /// devices.
  sim::ParallelEngine* parallel() { return parallel_.get(); }

  /// LP owning node `i`'s devices.
  std::size_t node_lp(std::size_t i) const {
    return partition_.lp_of_host.at(i);
  }
  /// The LP engine node `i`'s devices are bound to.
  sim::Engine& node_engine(std::size_t i) { return parallel_->lp(node_lp(i)); }
  /// The LP partition the cluster runs on (LP maps and lookahead).
  const net::LpPartition& partition() const { return partition_; }
  /// Why the cluster runs on that partition: "per-switch", or the first
  /// rule that forced one LP ("one LP: engine_threads <= 1", "one LP:
  /// single switch", "one LP: adaptive routing", "one LP: degraded
  /// fallback").  A fixed string, valid for the program's lifetime.
  const char* partition_reason() const { return partition_reason_; }

  /// Runs the simulation to completion in conservative windows over the
  /// cluster's partition (one unbounded window on one LP).  Returns the
  /// final simulated time.
  Time run();

  /// Enables tracing on every LP lane — use instead of tracer().enable()
  /// so per-switch runs record all lanes and digest() covers the full
  /// event stream.
  void enable_tracing(std::size_t ring_capacity = 0);

  /// The run's determinism digest, ParallelEngine::combined_digest(): on
  /// one LP, that engine's tracer digest (the golden pins).
  std::uint64_t digest() const { return parallel_->combined_digest(); }
  /// Trace records emitted across every lane.
  std::uint64_t trace_records() const;
  /// Events executed across every LP.
  std::uint64_t events_executed() const {
    return parallel_->events_executed();
  }
  /// Counter snapshot merged across every LP's registry: per-LP totals
  /// summed by (category, node, name), in the registry's deterministic
  /// order.  Identical to engine().counters().snapshot() on one LP.
  std::vector<trace::CounterSample> counters_snapshot();

  /// The engine's trace stream; enable() it before a run to record.
  /// Also honours two environment variables (captured once per process —
  /// see trace_env() — and applied at construction):
  ///   ACC_TRACE=<path>    — record and write Chrome trace JSON to <path>
  ///                         at destruction.  The first cluster torn down
  ///                         writes <path> itself; every later one
  ///                         appends a process-wide atomic counter
  ///                         (<path>.2, <path>.3, ...), assigned in
  ///                         destruction order, never reused or reset;
  ///   ACC_TRACE_DIGEST=1  — record into a small ring and print
  ///                         "acc-trace-digest <hex>" to stderr at
  ///                         destruction (determinism checks).
  trace::Tracer& tracer() { return engine().tracer(); }
  std::size_t size() const { return nodes_.size(); }
  Interconnect interconnect() const { return ic_; }

  hw::Node& node(std::size_t i) { return *nodes_.at(i); }
  net::Network& network() { return *network_; }
  proto::TcpStack& tcp(std::size_t i) { return *tcp_.at(i); }
  inic::InicCard& card(std::size_t i) { return *cards_.at(i); }
  const model::Calibration& calibration() const { return cal_; }
  const ClusterOptions& options() const { return opts_; }

  /// Transport-agnostic message send: TCP on the baseline interconnects,
  /// send_stream on the INIC ones.  With options().degraded_fallback the
  /// INIC path additionally reroutes over the parallel TCP plane when the
  /// source or destination card is in a reset window, or when the card
  /// gives up on the peer mid-stream (PeerUnreachableError).  Awaitable;
  /// completes when the transport-level send completes.
  sim::Process transfer(int src, int dst, Bytes size, std::uint64_t tag = 0,
                        std::any payload = {});

  /// The inbox transfer() delivers into on node `i`: the card inbox on
  /// INIC interconnects (fallback messages are pumped into it too, so
  /// receivers never need to know which plane carried a message), the TCP
  /// inbox otherwise.
  sim::Channel<proto::Message>& inbox(std::size_t i);

  /// Transfers that were rerouted over the fallback TCP plane.
  std::uint64_t fallback_transfers() const;

  /// Node `i`'s NIC-resident collective engine (INIC interconnects
  /// only; lazily constructed).  Its send path is transfer(), so
  /// on-card forwards inherit the degraded-fallback behaviour.
  inic::CollectiveEngine& collective_engine(std::size_t i);

  /// Hands out a fresh cluster-unique collective operation id (tags two
  /// trigger-table entries per op; see inic/collective.cpp).
  std::uint64_t next_collective_op() { return next_collective_op_++; }

 private:
  void note_fallback(int src, Bytes size);

  Interconnect ic_;
  model::Calibration cal_;
  ClusterOptions opts_;
  bool env_trace_json_ = false;
  bool env_trace_digest_ = false;
  // The partition (ClusterOptions::engine_threads) and the window
  // scheduler owning one engine per LP.  Declared before network_/nodes_
  // (which bind to the LP engines) so those are destroyed first.
  net::LpPartition partition_;
  const char* partition_reason_ = nullptr;  // see partition_reason()
  std::unique_ptr<sim::ParallelEngine> parallel_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<hw::Node>> nodes_;
  std::vector<std::unique_ptr<net::StandardNic>> nics_;
  std::vector<std::unique_ptr<proto::TcpStack>> tcp_;
  std::vector<std::unique_ptr<inic::InicCard>> cards_;
  // Degraded-mode plane (INIC + degraded_fallback only): a second switch
  // with standard NICs and TCP stacks, plus pump processes forwarding
  // fallback deliveries into the card inboxes.
  std::unique_ptr<net::Network> fallback_net_;
  std::vector<std::unique_ptr<net::StandardNic>> fallback_nics_;
  std::vector<std::unique_ptr<proto::TcpStack>> fallback_tcp_;
  std::vector<std::unique_ptr<sim::Process>> fallback_pumps_;
  trace::Counter* fallback_transfers_ = nullptr;
  // NIC-resident collective engines (one per card, lazily built) and the
  // op-id generator they share.  Declared after cards_ so the engines
  // (whose triggers reference the cards) are destroyed first.
  std::vector<std::unique_ptr<inic::CollectiveEngine>> collective_engines_;
  std::uint64_t next_collective_op_ = 0;
};

}  // namespace acc::apps
