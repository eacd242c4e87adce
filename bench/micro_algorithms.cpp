// Google-benchmark microbenchmarks of the real algorithm kernels,
// including the paper's Section 3.2 claim that Count Sort beats
// quicksort ("as much as 2.5x faster"), its Section 3.2.1 bucket-count
// knee and its Section 6 two-phase vs one-phase bucket sort.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "algo/fft.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "common/rng.hpp"

namespace {

using namespace acc;

void BM_CountSort(benchmark::State& state) {
  const auto keys =
      algo::uniform_keys(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto copy = keys;
    algo::count_sort(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountSort)->Range(1 << 12, 1 << 20);

void BM_Quicksort(benchmark::State& state) {
  const auto keys =
      algo::uniform_keys(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto copy = keys;
    algo::quicksort(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Quicksort)->Range(1 << 12, 1 << 20);

void BM_StdSort(benchmark::State& state) {
  const auto keys =
      algo::uniform_keys(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto copy = keys;
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdSort)->Range(1 << 12, 1 << 20);

// The exact verification oracle of the distributed sort, on 16 nodes'
// inputs and their correct sorted outputs.  CI gates it against
// BM_StdSort/1048576, the global sort it replaced.
void BM_SortOracle(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t nodes = 16;
  const auto keys = algo::uniform_keys(n, 1);
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::span<const algo::Key>> inputs, outputs;
  for (std::size_t p = 0; p < nodes; ++p) {
    inputs.emplace_back(keys.data() + p * n / nodes, n / nodes);
    outputs.emplace_back(sorted.data() + p * n / nodes, n / nodes);
  }
  for (auto _ : state) {
    bool ok = algo::is_sorted_permutation_of(inputs, outputs);
    benchmark::DoNotOptimize(ok);
    if (!ok) {
      state.SkipWithError("oracle rejected a correct sort");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortOracle)->Arg(1 << 14)->Arg(1 << 20);

// Section 3.2.1's bucket count vs cache residency ({keys, buckets}):
// 2^21 keys over 1..1024 buckets, plus the one-phase 16N-way twins of
// BM_TwoPhaseSort at 2^22 keys.  The input copy is not timed.
void BM_CacheAwareSort(benchmark::State& state) {
  const auto keys =
      algo::uniform_keys(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    state.PauseTiming();
    auto copy = keys;
    state.ResumeTiming();
    algo::cache_aware_sort(copy, static_cast<std::size_t>(state.range(1)));
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_CacheAwareSort)
    ->ArgsProduct({{1 << 21}, {1, 8, 32, 128, 256, 1024}})
    ->ArgsProduct({{1 << 22}, {16 * 64, 16 * 128, 16 * 256, 16 * 512,
                               16 * 1024}});

// Section 6's two-phase host bucket sort ({keys, N}): the prototype's
// 16-way hardware pass, then N cache buckets per coarse bucket.  The
// paper finds it can beat the direct 16N-way BM_CacheAwareSort.
void BM_TwoPhaseSort(benchmark::State& state) {
  const auto keys =
      algo::uniform_keys(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto sorted = algo::two_phase_sort(
        keys, 16, static_cast<std::size_t>(state.range(1)));
    benchmark::DoNotOptimize(sorted.data());
  }
}
BENCHMARK(BM_TwoPhaseSort)
    ->ArgsProduct({{1 << 22}, {64, 128, 256, 512, 1024}});

void BM_BucketPartition(benchmark::State& state) {
  const auto keys = algo::uniform_keys(1 << 20, 1);
  for (auto _ : state) {
    auto buckets = algo::bucket_sort_partition(
        keys, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(buckets.data());
  }
}
BENCHMARK(BM_BucketPartition)->Arg(8)->Arg(16)->Arg(256);

void BM_Fft1D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  algo::FftPlan plan(n, algo::FftPlan::Direction::kForward);
  Rng rng(3);
  std::vector<algo::Complex> signal(n);
  for (auto& x : signal) x = algo::Complex(rng.uniform(-1, 1), 0.0);
  for (auto _ : state) {
    auto copy = signal;
    plan.execute(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fft1D)->Arg(256)->Arg(512)->Arg(4096);

void BM_Fft2D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  algo::Matrix<algo::Complex> m(n, n);
  for (auto& x : m.storage()) x = algo::Complex(rng.uniform(-1, 1), 0.0);
  for (auto _ : state) {
    auto copy = m;
    algo::fft2d_inplace(copy);
    benchmark::DoNotOptimize(copy.storage().data());
  }
}
BENCHMARK(BM_Fft2D)->Arg(256)->Arg(512);

void BM_LocalTransposeBlocks(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512, m = n / p;
  algo::Matrix<algo::Complex> slab(m, n, algo::Complex(1.0, 2.0));
  for (auto _ : state) {
    algo::local_transpose_blocks(slab);
    benchmark::DoNotOptimize(slab.storage().data());
  }
}
BENCHMARK(BM_LocalTransposeBlocks)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
