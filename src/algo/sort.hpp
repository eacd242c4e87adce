// Sorting kernels for the paper's second application (Section 3.2).
//
// The paper's host-side pipeline is: bucket sort the incoming stream into
// cache-sized buckets, then finish each bucket with Count Sort (Agarwal's
// counting-based sort [1]); quicksort is the baseline it beats by up to
// 2.5x.  All of those pieces are implemented here from scratch:
//
//   * bucket_index / bucket_sort_partition — single-pass distribution by
//     the key's top bits (what the INIC's hardware bucket-sort engine
//     does to the data stream),
//   * count_sort — stable LSD counting sort on 8-bit digits (the
//     practical form of Agarwal's count sort for 32-bit keys, where a
//     direct value-range count array would not fit in memory),
//   * counting_sort_range — the textbook O(n + range) counting sort used
//     when a bucket's value range is small,
//   * quicksort — median-of-three quicksort with insertion-sort cutoff,
//     the baseline of Section 3.2,
//   * cache_aware_sort — the full host pipeline (bucket phase + count
//     sort per bucket) with a configurable bucket count.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace acc::algo {

using Key = std::uint32_t;

/// Number of leading bits selecting among `num_buckets` buckets;
/// num_buckets must be a power of two.
int bucket_bits(std::size_t num_buckets);

/// Bucket of a key when distributing into `num_buckets` by top bits.
/// Uniform keys land uniformly across buckets, the paper's assumption.
std::size_t bucket_index(Key key, std::size_t num_buckets);

/// Distributes keys into `num_buckets` buckets by top bits (stable within
/// each bucket).  This is the operation the INIC performs on the stream.
std::vector<std::vector<Key>> bucket_sort_partition(std::span<const Key> keys,
                                                    std::size_t num_buckets);

/// Histogram of keys per bucket without materializing the buckets; used
/// by the timing models and by streaming device models.
std::vector<std::size_t> bucket_histogram(std::span<const Key> keys,
                                          std::size_t num_buckets);

/// Stable LSD counting sort on 8-bit digits (four passes over the data).
void count_sort(std::vector<Key>& keys);

/// Textbook counting sort for keys known to lie in [lo, hi); requires
/// hi - lo small enough to allocate a count array.
void counting_sort_range(std::vector<Key>& keys, Key lo, Key hi);

/// Median-of-three quicksort with insertion-sort cutoff — the baseline
/// the paper reports Count Sort beating by up to 2.5x.
void quicksort(std::vector<Key>& keys);

/// The paper's host pipeline: bucket sort into `num_buckets` cache-sized
/// buckets, count sort each, and concatenate.  With >= 128 buckets on
/// 2^21+ keys every bucket fits in cache (Section 3.2.1).
void cache_aware_sort(std::vector<Key>& keys, std::size_t num_buckets);

/// Two-phase bucket refinement used by the prototype INIC (Section 6):
/// the card can only sort into `phase1_buckets` (16 on the ACEII); the
/// host refines each into `phase2_buckets` before count sorting.
/// Returns the fully sorted keys.
std::vector<Key> two_phase_sort(std::span<const Key> keys,
                                std::size_t phase1_buckets,
                                std::size_t phase2_buckets);

/// Uniformly distributed synthetic keys — the paper's workload
/// (Section 3.2: "synthetically generated and uniformly distributed").
std::vector<Key> uniform_keys(std::size_t count, std::uint64_t seed);

/// Gaussian-distributed keys (the NAS-benchmark-style alternative the
/// paper cites [2]): mean 2^31, configurable sigma, clamped to 32 bits.
/// Top-bit bucketing concentrates these into the middle buckets.
std::vector<Key> gaussian_keys(std::size_t count, std::uint64_t seed,
                               double sigma = 1u << 29);

/// Zipf(theta) rank sampler over [0, n): P(rank r) proportional to
/// 1/(r+1)^theta.  theta = 0 is uniform; ~0.99 is the classic web/KV
/// popularity skew (YCSB's default).  The cumulative table is built once
/// (O(n)); each sample is a binary search consuming exactly one draw
/// from the caller's Rng — deterministic per (n, theta, seed, draw
/// index), which the serving workload's digest contract relies on.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double theta);

  std::size_t n() const { return cdf_.size(); }
  double theta() const { return theta_; }

  /// Rank in [0, n): 0 is the hottest key.
  std::size_t sample(Rng& rng) const;

 private:
  double theta_ = 0.0;
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r), cdf_.back() == 1
};

/// Zipf-skewed 32-bit keys: rank-0 is the most frequent value.  Ranks
/// are mixed through splitmix64 so top-bit bucketing (bucket_index)
/// spreads the hot ranks pseudo-randomly across buckets — the shard
/// mapping the KV serving workload uses.
std::vector<Key> zipf_keys(std::size_t count, std::size_t n, double theta,
                           std::uint64_t seed);

/// The rank -> key mixing used by zipf_keys (exposed so consumers can
/// map a sampled rank to the same key value).
Key zipf_rank_key(std::size_t rank);

/// Sampling pre-sort phase (Section 3.2: "sampling in a pre-sort phase
/// helps address the shortcomings of our assumption by leading to a more
/// balanced workload"): picks P-1 splitter keys from a sample so each of
/// the P ranges holds ~1/P of the data regardless of distribution.
std::vector<Key> choose_splitters(std::span<const Key> sample,
                                  std::size_t num_buckets);

/// Bucket of a key under explicit splitters (splitters.size()+1 buckets,
/// bucket b holds keys in [splitters[b-1], splitters[b]) ).
std::size_t splitter_bucket(Key key, std::span<const Key> splitters);

/// Distribution pass using splitters instead of top bits.
std::vector<std::vector<Key>> splitter_partition(
    std::span<const Key> keys, std::span<const Key> splitters);

// ---------------------------------------------------------------------
// Test oracle.  Shares no code with the sorts above, so a bug in one of
// them cannot hide in the check of its own output.
// ---------------------------------------------------------------------

/// True iff the concatenation of `outputs` equals std::sort of the
/// concatenation of `inputs`.  Exact, in near-linear time: one counting
/// pass on the keys' top bits (about 16 keys per slice, at most 2^16
/// slices), one scatter into a single buffer, std::sort of each slice,
/// then a comparison against each output in order.
bool is_sorted_permutation_of(std::span<const std::span<const Key>> inputs,
                              std::span<const std::span<const Key>> outputs);

}  // namespace acc::algo
