#include "apps/fft_app.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algo/transpose.hpp"
#include "apps/host_costs.hpp"
#include "common/rng.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"

namespace acc::apps {

namespace {

using algo::Complex;
using algo::Matrix;

/// Payload of one transpose block in flight (already locally transposed).
struct BlockPayload {
  int sender = -1;
  Matrix<Complex> block;
};

/// Per-node run state shared between the coroutines of one run.
struct NodeRun {
  Matrix<Complex> slab;       // current local rows
  Matrix<Complex> assembly;   // slab being assembled by the transpose
  Time row_phase = Time::zero();  // duration of one row-FFT phase
  // Messages that arrived for a later transpose round than the node is
  // currently assembling (cross-node skew).
  std::map<std::uint64_t, std::vector<proto::Message>> stash;
};

Matrix<Complex> random_matrix(std::size_t n, std::uint64_t seed) {
  Matrix<Complex> m(n, n);
  Rng rng(seed);
  for (auto& x : m.storage()) {
    x = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  return m;
}

/// Appends `count` messages tagged `tag` from the inbox to `out`,
/// stashing any message that belongs to a different (later) tag so that
/// cross-node skew between exchange rounds cannot mix rounds up.
template <typename Inbox>
sim::Process recv_for_round(Inbox& inbox, NodeRun& state, std::uint64_t tag,
                            std::size_t count,
                            std::vector<proto::Message>& out) {
  auto& ready = state.stash[tag];
  std::size_t got = 0;
  while (got < count) {
    if (!ready.empty()) {
      out.push_back(std::move(ready.back()));
      ready.pop_back();
      ++got;
      continue;
    }
    proto::Message msg = co_await inbox.recv();
    if (msg.tag == tag) {
      out.push_back(std::move(msg));
      ++got;
    } else {
      state.stash[msg.tag].push_back(std::move(msg));
    }
  }
  state.stash.erase(tag);
}

/// One transpose on the HostTcp baseline: host local-transpose pass,
/// TCP all-to-all, host final-permutation pass (Figure 2a).
sim::Process transpose_host_tcp(SimCluster& cluster, std::size_t me,
                                NodeRun& state, std::uint64_t round,
                                bool verify) {
  const std::size_t p_count = cluster.size();
  const std::size_t m = state.slab.rows();
  const Bytes slab_bytes = Bytes(state.slab.size() * sizeof(Complex));
  const Bytes block_bytes = Bytes(m * m * sizeof(Complex));
  hw::Node& node = cluster.node(me);

  // Step 1: local transpose of every M x M block (host memory pass).
  co_await node.cpu().compute(
      transpose_pass_time(node.cpu().memory(), slab_bytes, slab_bytes));
  if (verify) algo::local_transpose_blocks(state.slab);

  // Step 2: all-to-all as P-1 *serialized pairwise exchanges* — the way
  // FFTW's MPI transpose actually communicates, and exactly why the
  // paper calls the transpose "a serialized communications step".  In
  // exchange round r, this node sends to (me + r) mod P and receives
  // from (me - r) mod P, and does not start round r+1 until both
  // complete.  Per-message latency (slow start, coalesced interrupts)
  // therefore accumulates across rounds instead of overlapping — the
  // INIC variant below has no such serialization.
  if (verify) {
    state.assembly = Matrix<Complex>(m, m * p_count);
    algo::interleave_block(state.assembly,
                           algo::extract_block(state.slab, me), me);
  }

  std::vector<proto::Message> received;
  for (std::size_t r = 1; r < p_count; ++r) {
    const std::size_t dst = (me + r) % p_count;
    const std::uint64_t tag = (round << 16) | r;
    std::any payload;
    if (verify) {
      payload = BlockPayload{static_cast<int>(me),
                             algo::extract_block(state.slab, dst)};
    }
    sim::Process send = cluster.tcp(me).send_message(
        static_cast<int>(dst), block_bytes, tag, std::move(payload));
    send.start(cluster.node_engine(me));
    co_await recv_for_round(cluster.tcp(me).inbox(), state, tag, 1, received);
    co_await send;
  }

  // Step 3: final permutation (interleave received blocks) on the host.
  co_await node.cpu().compute(
      transpose_pass_time(node.cpu().memory(), slab_bytes, slab_bytes));
  if (verify) {
    for (auto& msg : received) {
      auto block = std::any_cast<BlockPayload>(std::move(msg.payload));
      algo::interleave_block(state.assembly, block.block,
                             static_cast<std::size_t>(block.sender));
    }
    state.slab = std::move(state.assembly);
  }
}

/// One transpose on the ACC: every data manipulation happens on the INIC
/// in-stream; the host only sources and sinks the slab (Figure 2b).
sim::Process transpose_inic(SimCluster& cluster, std::size_t me,
                            NodeRun& state, std::uint64_t round,
                            bool verify) {
  const std::size_t p_count = cluster.size();
  const std::size_t m = state.slab.rows();
  const Bytes slab_bytes = Bytes(state.slab.size() * sizeof(Complex));
  const Bytes block_bytes = Bytes(m * m * sizeof(Complex));
  inic::InicCard& card = cluster.card(me);

  // The whole slab streams host -> card; the card's transpose engine
  // reorganizes it in flight at zero host cost.  The P-1 outbound blocks
  // are sent by send_stream (which books the host-DMA stage itself); the
  // node's own block crosses to the card and back without the network.
  if (verify) algo::local_transpose_blocks(state.slab);

  std::vector<std::unique_ptr<sim::Process>> sends;
  for (std::size_t q = 0; q < p_count; ++q) {
    if (q == me) continue;
    std::any payload;
    if (verify) {
      payload = BlockPayload{static_cast<int>(me),
                             algo::extract_block(state.slab, q)};
    }
    // Routed through the cluster so a card in a fault/reset window can
    // fall back to the TCP plane (degraded mode) instead of stalling.
    sends.push_back(std::make_unique<sim::Process>(
        cluster.transfer(static_cast<int>(me), static_cast<int>(q),
                         block_bytes, round, std::move(payload))));
    sends.back()->start(cluster.node_engine(me));
  }
  // Own block: host -> card leg (the card holds it for the permutation).
  co_await card.dma_from_host(block_bytes);

  if (verify) {
    state.assembly = Matrix<Complex>(m, m * p_count);
    algo::interleave_block(state.assembly,
                           algo::extract_block(state.slab, me), me);
  }

  std::vector<proto::Message> received;
  co_await recv_for_round(cluster.inbox(me), state, round, p_count - 1,
                          received);
  for (auto& s : sends) co_await *s;

  if (verify) {
    for (auto& msg : received) {
      auto block = std::any_cast<BlockPayload>(std::move(msg.payload));
      algo::interleave_block(state.assembly, block.block,
                             static_cast<std::size_t>(block.sender));
    }
    state.slab = std::move(state.assembly);
  }

  // "The final copy of data to the host must wait on all data to be
  // received" (Equation 9): the permuted slab returns to host memory.
  co_await card.dma_to_host(slab_bytes);
}

/// Full 4-step node program.
sim::Process fft_node(SimCluster& cluster, std::size_t me, NodeRun& state,
                      std::size_t n, bool verify, Time& compute_out) {
  hw::Node& node = cluster.node(me);
  const std::size_t m = n / cluster.size();
  const Bytes slab_bytes = Bytes(m * n * sizeof(Complex));
  const model::Calibration& cal = cluster.calibration();

  state.row_phase = fft_row_time(cal, node.cpu().memory(), n, slab_bytes) *
                    static_cast<double>(m);
  algo::FftPlan plan(n, algo::FftPlan::Direction::kForward);

  auto row_ffts = [&]() {
    if (!verify) return;
    for (std::size_t r = 0; r < m; ++r) plan.execute(state.slab.row(r));
  };
  auto do_transpose = [&](std::uint64_t round) {
    if (cluster.size() == 1) {
      // Single node: the transpose is purely local on either variant.
      return [](SimCluster& c, std::size_t node_id, NodeRun& s,
                bool v) -> sim::Process {
        hw::Node& nd = c.node(node_id);
        const Bytes sb = Bytes(s.slab.size() * sizeof(Complex));
        co_await nd.cpu().compute(
            transpose_pass_time(nd.cpu().memory(), sb, sb) * 2.0);
        if (v) algo::transpose_square_inplace(s.slab);
      }(cluster, me, state, verify);
    }
    return is_inic(cluster.interconnect())
               ? transpose_inic(cluster, me, state, round, verify)
               : transpose_host_tcp(cluster, me, state, round, verify);
  };

  // Step 1: 1D FFT of each local row.
  co_await node.cpu().compute(state.row_phase);
  row_ffts();
  // Step 2: transpose.
  co_await do_transpose(1);
  // Step 3: 1D FFT of each (former-column) row.
  co_await node.cpu().compute(state.row_phase);
  row_ffts();
  // Step 4: transpose back.
  co_await do_transpose(2);

  compute_out = state.row_phase * 2.0;
}

}  // namespace

FftRunResult run_parallel_fft(SimCluster& cluster, std::size_t n,
                              const FftRunOptions& opts) {
  const std::size_t p_count = cluster.size();
  if (!algo::is_pow2(n)) {
    throw std::invalid_argument("run_parallel_fft: n must be a power of two");
  }
  if (n % p_count != 0) {
    throw std::invalid_argument("run_parallel_fft: P must divide n");
  }
  const std::size_t m = n / p_count;

  Matrix<Complex> input;
  std::vector<NodeRun> state(p_count);
  for (std::size_t p = 0; p < p_count; ++p) {
    state[p].slab = Matrix<Complex>(m, n);
  }
  if (opts.verify) {
    input = random_matrix(n, opts.seed);
    for (std::size_t p = 0; p < p_count; ++p) {
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          state[p].slab.at(r, c) = input.at(p * m + r, c);
        }
      }
    }
  }

  std::vector<Time> compute(p_count, Time::zero());
  sim::ProcessGroup group(*cluster.parallel());
  for (std::size_t p = 0; p < p_count; ++p) {
    group.spawn_on(cluster.node_lp(p),
                   fft_node(cluster, p, state[p], n, opts.verify, compute[p]));
  }
  const Time total = group.join();

  FftRunResult result;
  result.n = n;
  result.processors = p_count;
  result.interconnect = cluster.interconnect();
  result.total = total;
  result.compute = *std::max_element(compute.begin(), compute.end());
  result.transpose = total - result.compute;

  if (opts.verify) {
    Matrix<Complex> expected = input;
    algo::fft2d_inplace(expected);
    double worst = 0.0;
    for (std::size_t p = 0; p < p_count; ++p) {
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          worst = std::max(worst, std::abs(state[p].slab.at(r, c) -
                                           expected.at(p * m + r, c)));
        }
      }
    }
    result.verified = worst < 1e-6 * static_cast<double>(n);
  }
  return result;
}

FftRunResult run_serial_fft(const model::Calibration& cal, std::size_t n) {
  hw::MemoryConfig mem_cfg;
  mem_cfg.l1_size = cal.l1_size;
  mem_cfg.l2_size = cal.l2_size;
  mem_cfg.l1_bandwidth = cal.l1_bandwidth;
  mem_cfg.l2_bandwidth = cal.l2_bandwidth;
  mem_cfg.dram_bandwidth = cal.dram_bandwidth;
  const hw::MemoryHierarchy mem(mem_cfg);

  const Bytes matrix_bytes = Bytes(n * n * 16);
  const Time row_phase =
      fft_row_time(cal, mem, n, matrix_bytes) * static_cast<double>(n);
  const Time transpose =
      transpose_pass_time(mem, matrix_bytes, matrix_bytes) * 2.0;

  FftRunResult result;
  result.n = n;
  result.processors = 1;
  result.total = row_phase * 2.0 + transpose * 2.0;
  result.compute = row_phase * 2.0;
  result.transpose = transpose * 2.0;
  result.verified = true;
  return result;
}

}  // namespace acc::apps
