#include "algo/sort.hpp"

#include <algorithm>
#include <cmath>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace acc::algo {

namespace {

constexpr int kKeyBits = 32;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void insertion_sort(Key* first, Key* last) {
  for (Key* i = first + 1; i < last; ++i) {
    const Key v = *i;
    Key* j = i;
    while (j > first && *(j - 1) > v) {
      *j = *(j - 1);
      --j;
    }
    *j = v;
  }
}

Key median_of_three(Key a, Key b, Key c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
  return b;
}

void quicksort_rec(Key* first, Key* last) {
  constexpr std::ptrdiff_t kCutoff = 24;
  while (last - first > kCutoff) {
    const Key pivot =
        median_of_three(*first, *(first + (last - first) / 2), *(last - 1));
    Key* lo = first;
    Key* hi = last;
    for (;;) {
      while (*lo < pivot) ++lo;
      do {
        --hi;
      } while (*hi > pivot);
      if (lo >= hi) break;
      std::swap(*lo, *hi);
      ++lo;
    }
    // Recurse into the smaller side to bound stack depth at O(log n).
    Key* mid = lo;
    if (mid - first < last - mid) {
      quicksort_rec(first, mid);
      first = mid;
    } else {
      quicksort_rec(mid, last);
      last = mid;
    }
  }
  insertion_sort(first, last);
}

}  // namespace

int bucket_bits(std::size_t num_buckets) {
  if (!is_pow2(num_buckets)) {
    throw std::invalid_argument("bucket count must be a power of two");
  }
  int bits = 0;
  while ((std::size_t{1} << bits) < num_buckets) ++bits;
  if (bits > kKeyBits) {
    throw std::invalid_argument("bucket count exceeds key space");
  }
  return bits;
}

std::size_t bucket_index(Key key, std::size_t num_buckets) {
  const int bits = bucket_bits(num_buckets);
  if (bits == 0) return 0;
  return static_cast<std::size_t>(key >> (kKeyBits - bits));
}

std::vector<std::vector<Key>> bucket_sort_partition(std::span<const Key> keys,
                                                    std::size_t num_buckets) {
  const int bits = bucket_bits(num_buckets);
  std::vector<std::vector<Key>> buckets(num_buckets);
  if (num_buckets == 0) return buckets;
  // Pre-size from a histogram to avoid re-allocation churn on big inputs.
  std::vector<std::size_t> counts = bucket_histogram(keys, num_buckets);
  for (std::size_t b = 0; b < num_buckets; ++b) buckets[b].reserve(counts[b]);
  const int shift = kKeyBits - bits;
  for (Key k : keys) {
    buckets[bits == 0 ? 0 : (k >> shift)].push_back(k);
  }
  return buckets;
}

std::vector<std::size_t> bucket_histogram(std::span<const Key> keys,
                                          std::size_t num_buckets) {
  const int bits = bucket_bits(num_buckets);
  std::vector<std::size_t> counts(num_buckets, 0);
  const int shift = kKeyBits - bits;
  for (Key k : keys) {
    ++counts[bits == 0 ? 0 : (k >> shift)];
  }
  return counts;
}

void count_sort(std::vector<Key>& keys) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  std::vector<Key> scratch(n);
  Key* src = keys.data();
  Key* dst = scratch.data();
  for (int pass = 0; pass < 4; ++pass) {
    const int shift = pass * 8;
    std::size_t counts[256] = {};
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[(src[i] >> shift) & 0xFFu];
    }
    // Skip passes where every key shares the digit (common inside small
    // value-range buckets).
    bool trivial = false;
    for (std::size_t c : counts) {
      if (c == n) {
        trivial = true;
        break;
      }
    }
    if (trivial) continue;
    std::size_t offset = 0;
    for (std::size_t d = 0; d < 256; ++d) {
      const std::size_t c = counts[d];
      counts[d] = offset;
      offset += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[counts[(src[i] >> shift) & 0xFFu]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) {
    std::copy(src, src + n, keys.data());
  }
}

void counting_sort_range(std::vector<Key>& keys, Key lo, Key hi) {
  if (hi <= lo) {
    if (!keys.empty()) {
      throw std::invalid_argument("counting_sort_range: empty range");
    }
    return;
  }
  const std::size_t range = static_cast<std::size_t>(hi - lo);
  std::vector<std::size_t> counts(range, 0);
  for (Key k : keys) {
    if (k < lo || k >= hi) {
      throw std::out_of_range("counting_sort_range: key outside [lo, hi)");
    }
    ++counts[k - lo];
  }
  std::size_t out = 0;
  for (std::size_t v = 0; v < range; ++v) {
    for (std::size_t c = 0; c < counts[v]; ++c) {
      keys[out++] = lo + static_cast<Key>(v);
    }
  }
}

void quicksort(std::vector<Key>& keys) {
  if (keys.size() > 1) {
    quicksort_rec(keys.data(), keys.data() + keys.size());
  }
}

void cache_aware_sort(std::vector<Key>& keys, std::size_t num_buckets) {
  if (keys.size() < 2) return;
  if (num_buckets <= 1) {
    count_sort(keys);
    return;
  }
  auto buckets = bucket_sort_partition(keys, num_buckets);
  std::size_t out = 0;
  for (auto& bucket : buckets) {
    count_sort(bucket);
    std::copy(bucket.begin(), bucket.end(), keys.begin() + out);
    out += bucket.size();
  }
  assert(out == keys.size());
}

std::vector<Key> two_phase_sort(std::span<const Key> keys,
                                std::size_t phase1_buckets,
                                std::size_t phase2_buckets) {
  // Phase 1: coarse distribution (on the prototype, done by the card).
  auto coarse = bucket_sort_partition(keys, phase1_buckets);
  std::vector<Key> out;
  out.reserve(keys.size());
  for (auto& bucket : coarse) {
    // Phase 2: the host refines each coarse bucket and count sorts the
    // refined buckets.  Buckets arrive in increasing top-bit order, so a
    // simple concatenation yields the global sort.
    if (bucket.size() < 2) {
      out.insert(out.end(), bucket.begin(), bucket.end());
      continue;
    }
    std::vector<Key> sorted = std::move(bucket);
    cache_aware_sort(sorted, phase2_buckets);
    out.insert(out.end(), sorted.begin(), sorted.end());
  }
  return out;
}

std::vector<Key> uniform_keys(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys(count);
  for (auto& k : keys) k = rng.key32();
  return keys;
}

std::vector<Key> gaussian_keys(std::size_t count, std::uint64_t seed,
                               double sigma) {
  Rng rng(seed);
  std::vector<Key> keys(count);
  const double mean = 2147483648.0;  // 2^31
  for (auto& k : keys) {
    // Box-Muller from two uniforms (avoid log(0)).
    const double u1 = 1.0 - rng.uniform01();
    const double u2 = rng.uniform01();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    double v = mean + sigma * z;
    if (v < 0.0) v = 0.0;
    if (v > 4294967295.0) v = 4294967295.0;
    k = static_cast<Key>(v);
  }
  return keys;
}

ZipfTable::ZipfTable(std::size_t n, double theta) : theta_(theta) {
  if (n == 0) throw std::invalid_argument("ZipfTable: n must be positive");
  if (!(theta >= 0.0)) {  // catches NaN too
    throw std::invalid_argument("ZipfTable: theta must be >= 0");
  }
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard the binary search against rounding
}

std::size_t ZipfTable::sample(Rng& rng) const {
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it == cdf_.end() ? cdf_.size() - 1
                                                   : it - cdf_.begin());
}

Key zipf_rank_key(std::size_t rank) {
  // splitmix64 finalizer: spreads consecutive ranks across the 32-bit
  // key space so top-bit bucketing does not pin all hot keys to bucket 0.
  std::uint64_t z = static_cast<std::uint64_t>(rank) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<Key>(z >> 32);
}

std::vector<Key> zipf_keys(std::size_t count, std::size_t n, double theta,
                           std::uint64_t seed) {
  const ZipfTable table(n, theta);
  Rng rng(seed);
  std::vector<Key> keys(count);
  for (auto& k : keys) k = zipf_rank_key(table.sample(rng));
  return keys;
}

std::vector<Key> choose_splitters(std::span<const Key> sample,
                                  std::size_t num_buckets) {
  if (num_buckets < 2) return {};
  std::vector<Key> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<Key> splitters;
  splitters.reserve(num_buckets - 1);
  for (std::size_t b = 1; b < num_buckets; ++b) {
    if (sorted.empty()) {
      // Degenerate sample: fall back to uniform top-bit boundaries.
      splitters.push_back(static_cast<Key>((b << 32) / num_buckets));
    } else {
      const std::size_t idx =
          std::min(sorted.size() - 1, b * sorted.size() / num_buckets);
      splitters.push_back(sorted[idx]);
    }
  }
  return splitters;
}

std::size_t splitter_bucket(Key key, std::span<const Key> splitters) {
  // First splitter strictly greater than key... bucket b holds keys in
  // [splitters[b-1], splitters[b]): upper_bound semantics on >=.
  const auto it = std::upper_bound(splitters.begin(), splitters.end(), key,
                                   [](Key k, Key s) { return k < s; });
  return static_cast<std::size_t>(it - splitters.begin());
}

std::vector<std::vector<Key>> splitter_partition(
    std::span<const Key> keys, std::span<const Key> splitters) {
  std::vector<std::vector<Key>> buckets(splitters.size() + 1);
  for (Key k : keys) {
    buckets[splitter_bucket(k, splitters)].push_back(k);
  }
  return buckets;
}

bool is_sorted_permutation_of(std::span<const std::span<const Key>> inputs,
                              std::span<const std::span<const Key>> outputs) {
  std::size_t n = 0;
  for (const auto in : inputs) n += in.size();
  std::size_t n_out = 0;
  for (const auto out : outputs) n_out += out.size();
  if (n != n_out) return false;

  // Slice by the top `bits` key bits: ~16 keys per slice, up to 16 bits.
  int bits = 0;
  while (bits < 16 && (std::size_t{16} << bits) < n) ++bits;
  const int shift = kKeyBits - bits;
  const auto slice_of = [shift](Key k) {
    return static_cast<std::size_t>(std::uint64_t{k} >> shift);
  };

  // Count, turn the counts into slice starts, then scatter; afterwards
  // next[s] is one past the end of slice s.
  std::vector<std::size_t> next(std::size_t{1} << bits, 0);
  for (const auto in : inputs) {
    for (Key k : in) ++next[slice_of(k)];
  }
  std::size_t start = 0;
  for (auto& c : next) {
    const std::size_t count = c;
    c = start;
    start += count;
  }
  std::vector<Key> expected(n);
  for (const auto in : inputs) {
    for (Key k : in) expected[next[slice_of(k)]++] = k;
  }
  start = 0;
  for (const std::size_t end : next) {
    std::sort(expected.begin() + static_cast<std::ptrdiff_t>(start),
              expected.begin() + static_cast<std::ptrdiff_t>(end));
    start = end;
  }

  auto at = expected.begin();
  for (const auto out : outputs) {
    if (!std::equal(out.begin(), out.end(), at)) return false;
    at += static_cast<std::ptrdiff_t>(out.size());
  }
  return true;
}

}  // namespace acc::algo
