// Sorting kernels: correctness against std::sort, stability of the
// distribution pass, bucket arithmetic, the two-phase prototype path, and
// the is_sorted_permutation_of oracle (against the plain concatenate-and-
// std::sort predicate).
#include "algo/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>

#include "common/rng.hpp"

namespace acc::algo {
namespace {

TEST(BucketIndex, SplitsKeySpaceByTopBits) {
  EXPECT_EQ(bucket_index(0x00000000u, 16), 0u);
  EXPECT_EQ(bucket_index(0x0FFFFFFFu, 16), 0u);
  EXPECT_EQ(bucket_index(0x10000000u, 16), 1u);
  EXPECT_EQ(bucket_index(0xFFFFFFFFu, 16), 15u);
  EXPECT_EQ(bucket_index(0x80000000u, 2), 1u);
  EXPECT_EQ(bucket_index(0x7FFFFFFFu, 2), 0u);
  EXPECT_EQ(bucket_index(0xDEADBEEFu, 1), 0u);
}

TEST(BucketIndex, RejectsNonPowerOfTwoCounts) {
  EXPECT_THROW(bucket_index(0u, 3), std::invalid_argument);
  EXPECT_THROW(bucket_index(0u, 0), std::invalid_argument);
  EXPECT_THROW(bucket_bits(12), std::invalid_argument);
}

TEST(BucketPartition, KeysLandInOrderedBuckets) {
  auto keys = uniform_keys(10000, 42);
  const std::size_t buckets = 16;
  auto parts = bucket_sort_partition(keys, buckets);
  ASSERT_EQ(parts.size(), buckets);
  std::size_t total = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    for (Key k : parts[b]) {
      EXPECT_EQ(bucket_index(k, buckets), b);
    }
    total += parts[b].size();
  }
  EXPECT_EQ(total, keys.size());
  // Every key in bucket b precedes (in value) every key in bucket b+1.
  for (std::size_t b = 0; b + 1 < buckets; ++b) {
    if (parts[b].empty() || parts[b + 1].empty()) continue;
    const Key max_b = *std::max_element(parts[b].begin(), parts[b].end());
    const Key min_next =
        *std::min_element(parts[b + 1].begin(), parts[b + 1].end());
    EXPECT_LE(max_b, min_next);
  }
}

TEST(BucketPartition, IsStableWithinBuckets) {
  // Stability: equal keys (and same-bucket keys) keep arrival order.
  std::vector<Key> keys{5, 3, 5, 1, 3, 5};
  auto parts = bucket_sort_partition(keys, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], keys);
}

TEST(BucketHistogram, MatchesPartitionSizes) {
  auto keys = uniform_keys(5000, 7);
  auto hist = bucket_histogram(keys, 64);
  auto parts = bucket_sort_partition(keys, 64);
  ASSERT_EQ(hist.size(), parts.size());
  for (std::size_t b = 0; b < hist.size(); ++b) {
    EXPECT_EQ(hist[b], parts[b].size());
  }
}

TEST(BucketHistogram, UniformKeysBalanceAcrossBuckets) {
  const std::size_t n = 1 << 18;
  auto hist = bucket_histogram(uniform_keys(n, 99), 16);
  const double expected = static_cast<double>(n) / 16.0;
  for (std::size_t count : hist) {
    EXPECT_NEAR(static_cast<double>(count), expected, 0.05 * expected);
  }
}

class SortCorrectness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortCorrectness, CountSortMatchesStdSort) {
  auto keys = uniform_keys(GetParam(), 1 + GetParam());
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  count_sort(keys);
  EXPECT_EQ(keys, expected);
}

TEST_P(SortCorrectness, QuicksortMatchesStdSort) {
  auto keys = uniform_keys(GetParam(), 2 + GetParam());
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  quicksort(keys);
  EXPECT_EQ(keys, expected);
}

TEST_P(SortCorrectness, CacheAwareSortMatchesStdSort) {
  auto keys = uniform_keys(GetParam(), 3 + GetParam());
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  cache_aware_sort(keys, 128);
  EXPECT_EQ(keys, expected);
}

TEST_P(SortCorrectness, TwoPhaseSortMatchesStdSort) {
  auto keys = uniform_keys(GetParam(), 4 + GetParam());
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  auto sorted = two_phase_sort(keys, 16, 64);
  EXPECT_EQ(sorted, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortCorrectness,
                         ::testing::Values(0, 1, 2, 3, 17, 100, 1000, 65536));

TEST(CountSort, HandlesAllEqualKeys) {
  std::vector<Key> keys(1000, 0xABCD1234u);
  count_sort(keys);
  for (Key k : keys) EXPECT_EQ(k, 0xABCD1234u);
}

TEST(CountSort, HandlesAlreadySortedAndReversed) {
  std::vector<Key> asc(500), desc(500);
  std::iota(asc.begin(), asc.end(), 0u);
  for (std::size_t i = 0; i < desc.size(); ++i) {
    desc[i] = static_cast<Key>(desc.size() - i);
  }
  auto asc_expected = asc;
  auto desc_expected = desc;
  std::sort(desc_expected.begin(), desc_expected.end());
  count_sort(asc);
  count_sort(desc);
  EXPECT_EQ(asc, asc_expected);
  EXPECT_EQ(desc, desc_expected);
}

TEST(CountSort, HandlesExtremeValues) {
  std::vector<Key> keys{0xFFFFFFFFu, 0u, 0x80000000u, 0x7FFFFFFFu, 0u,
                        0xFFFFFFFFu};
  count_sort(keys);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), 0u);
  EXPECT_EQ(keys.back(), 0xFFFFFFFFu);
}

TEST(CountingSortRange, SortsWithinKnownRange) {
  std::vector<Key> keys{105, 100, 103, 101, 104, 100};
  counting_sort_range(keys, 100, 110);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys[0], 100u);
  EXPECT_EQ(keys[1], 100u);
}

TEST(CountingSortRange, RejectsOutOfRangeKeys) {
  std::vector<Key> keys{5};
  EXPECT_THROW(counting_sort_range(keys, 10, 20), std::out_of_range);
}

TEST(Quicksort, HandlesAdversarialPatterns) {
  // Organ-pipe, all-equal, and sawtooth inputs exercise partition edges.
  std::vector<Key> organ;
  for (Key i = 0; i < 500; ++i) organ.push_back(i);
  for (Key i = 500; i > 0; --i) organ.push_back(i);
  std::vector<Key> equal(777, 42);
  std::vector<Key> saw;
  for (Key i = 0; i < 1000; ++i) saw.push_back(i % 10);

  for (auto* v : {&organ, &equal, &saw}) {
    auto expected = *v;
    std::sort(expected.begin(), expected.end());
    quicksort(*v);
    EXPECT_EQ(*v, expected);
  }
}

TEST(TwoPhase, DegenerateBucketCountsStillSort) {
  auto keys = uniform_keys(2048, 5);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(two_phase_sort(keys, 1, 1), expected);
  EXPECT_EQ(two_phase_sort(keys, 2, 1), expected);
  EXPECT_EQ(two_phase_sort(keys, 1024, 2), expected);
}

TEST(UniformKeys, IsDeterministicPerSeed) {
  auto a = uniform_keys(100, 9);
  auto b = uniform_keys(100, 9);
  auto c = uniform_keys(100, 10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------
// is_sorted_permutation_of
// ---------------------------------------------------------------------

using Nodes = std::vector<std::vector<Key>>;

std::vector<std::span<const Key>> views(const Nodes& nodes) {
  return {nodes.begin(), nodes.end()};
}

bool oracle(const Nodes& inputs, const Nodes& outputs) {
  return is_sorted_permutation_of(views(inputs), views(outputs));
}

std::vector<Key> concat(const Nodes& nodes) {
  std::vector<Key> all;
  for (const auto& v : nodes) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// The predicate the oracle must equal: concat(outputs) ==
/// std::sort(concat(inputs)).
bool reference(const Nodes& inputs, const Nodes& outputs) {
  std::vector<Key> expected = concat(inputs);
  std::sort(expected.begin(), expected.end());
  return concat(outputs) == expected;
}

/// Splits keys into `parts` nodes of near-equal size.
Nodes split(const std::vector<Key>& keys, std::size_t parts) {
  Nodes nodes(parts);
  for (std::size_t p = 0, at = 0; p < parts; ++p) {
    const std::size_t len = keys.size() / parts + (p < keys.size() % parts);
    nodes[p].assign(keys.begin() + static_cast<std::ptrdiff_t>(at),
                    keys.begin() + static_cast<std::ptrdiff_t>(at + len));
    at += len;
  }
  return nodes;
}

/// The correct distributed result: the sorted keys, split over `parts`.
Nodes sorted_output(const Nodes& inputs, std::size_t parts) {
  std::vector<Key> all = concat(inputs);
  std::sort(all.begin(), all.end());
  return split(all, parts);
}

TEST(SortOracle, AcceptsSortedOutputOfEveryDistribution) {
  for (std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 14,
                        std::size_t{1} << 20}) {
    for (const auto& keys :
         {uniform_keys(n, 11), gaussian_keys(n, 12),
          zipf_keys(n, 1000, 0.99, 13)}) {
      const Nodes inputs = split(keys, 8);
      EXPECT_TRUE(oracle(inputs, sorted_output(inputs, 8))) << "n=" << n;
      // Only the concatenation matters, not where the nodes split it.
      EXPECT_TRUE(oracle(inputs, sorted_output(inputs, 3))) << "n=" << n;
    }
  }
}

TEST(SortOracle, AcceptsDegenerateInputs) {
  EXPECT_TRUE(oracle({}, {}));
  EXPECT_TRUE(oracle({{}, {}}, {{}}));
  EXPECT_TRUE(oracle({{42}}, {{}, {42}}));
  EXPECT_TRUE(oracle(split(std::vector<Key>(5000, 0xABCD1234u), 4),
                     split(std::vector<Key>(5000, 0xABCD1234u), 4)));
  const Nodes extremes{{0xFFFFFFFFu, 0u, 7u}, {0u, 0xFFFFFFFFu}};
  EXPECT_TRUE(oracle(extremes, {{0u, 0u}, {7u, 0xFFFFFFFFu, 0xFFFFFFFFu}}));
}

TEST(SortOracle, SeparatesKeysAcrossATopBitsSliceEdge) {
  // At 2^20 keys the slices are 16 bits wide, so these two keys fall on
  // either side of the first slice edge.
  std::vector<Key> keys = uniform_keys(std::size_t{1} << 20, 21);
  keys.insert(keys.end(), {0x00010000u, 0x0000FFFFu, 0x00010000u});
  const Nodes inputs = split(keys, 4);
  Nodes outputs = sorted_output(inputs, 4);
  EXPECT_TRUE(oracle(inputs, outputs));
  auto& first = outputs[0];
  const auto hi = std::find(first.begin(), first.end(), 0x00010000u);
  ASSERT_NE(hi, first.begin());
  ASSERT_EQ(*(hi - 1), 0x0000FFFFu);
  std::iter_swap(hi - 1, hi);
  EXPECT_FALSE(oracle(inputs, outputs));

  EXPECT_TRUE(oracle({{0x00010000u, 0x0000FFFFu}}, {{0x0000FFFFu, 0x00010000u}}));
  EXPECT_FALSE(
      oracle({{0x00010000u, 0x0000FFFFu}}, {{0x00010000u, 0x0000FFFFu}}));
}

class SortOracleRejects : public ::testing::Test {
 protected:
  Nodes inputs = split(uniform_keys(1 << 14, 31), 4);
  Nodes outputs = sorted_output(inputs, 4);

  void SetUp() override { ASSERT_TRUE(oracle(inputs, outputs)); }
  void TearDown() override {
    EXPECT_FALSE(oracle(inputs, outputs));
    EXPECT_FALSE(reference(inputs, outputs));
  }
};

TEST_F(SortOracleRejects, AdjacentSwap) {
  std::swap(outputs[1][10], outputs[1][11]);
}

TEST_F(SortOracleRejects, KeyReplacedByItsNeighbour) {
  // Still sorted, but a key is lost and its neighbour duplicated; the
  // last key of a node, so a check that skips node ends would miss it.
  auto& node = outputs[2];
  node.back() = node[node.size() - 2];
  ASSERT_TRUE(std::is_sorted(node.begin(), node.end()));
}

TEST_F(SortOracleRejects, MissingKey) { outputs[3].pop_back(); }

TEST_F(SortOracleRejects, ExtraKey) { outputs[0].push_back(outputs[0].back()); }

TEST_F(SortOracleRejects, NodesOutOfOrderAcrossABoundary) {
  // Exchange the keys either side of the node 0 / node 1 boundary: both
  // nodes stay sorted and the multiset is intact, but the concatenation
  // is not.
  std::swap(outputs[0].back(), outputs[1].front());
  ASSERT_TRUE(std::is_sorted(outputs[0].begin(), outputs[0].end()));
  ASSERT_TRUE(std::is_sorted(outputs[1].begin(), outputs[1].end()));
}

TEST(SortOracle, AgreesWithConcatenateAndSortUnderRandomMutations) {
  Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Narrow key ranges give duplicate-heavy inputs; wide ones give
    // several slice widths as the total size varies.
    const Key range = trial % 3 == 0 ? 16u : trial % 3 == 1 ? 1u << 20 : 0u;
    Nodes inputs(1 + rng.below(5));
    for (auto& node : inputs) {
      node.resize(rng.below(trial % 10 == 0 ? 8000 : 400));
      for (auto& k : node) {
        k = range == 0 ? rng.key32() : static_cast<Key>(rng.below(range));
      }
    }
    Nodes outputs = sorted_output(inputs, 1 + rng.below(5));
    auto& node = outputs[rng.below(outputs.size())];
    const std::size_t i = node.empty() ? 0 : rng.below(node.size());
    switch (rng.below(7)) {
      case 0:  // untouched
        break;
      case 1:  // swap with the next key
        if (i + 1 < node.size()) std::swap(node[i], node[i + 1]);
        break;
      case 2:  // replace by the next key
        if (i + 1 < node.size()) node[i] = node[i + 1];
        break;
      case 3:  // drop a key
        if (!node.empty()) node.erase(node.begin() + static_cast<long>(i));
        break;
      case 4:  // add a random key
        node.insert(node.begin() + static_cast<long>(i), rng.key32());
        break;
      case 5:  // nudge a key by one
        if (!node.empty()) ++node[i];
        break;
      case 6:  // exchange the keys either side of a node boundary
        for (std::size_t q = 0; q + 1 < outputs.size(); ++q) {
          if (!outputs[q].empty() && !outputs[q + 1].empty()) {
            std::swap(outputs[q].back(), outputs[q + 1].front());
            break;
          }
        }
        break;
    }
    const bool expected = reference(inputs, outputs);
    EXPECT_EQ(oracle(inputs, outputs), expected) << "trial " << trial;
    rejected += expected ? 0 : 1;
  }
  // The mutations must actually produce wrong outputs most of the time.
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace acc::algo
