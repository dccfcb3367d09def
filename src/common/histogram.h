// Log-bucketed latency histogram with percentile queries.
//
// Benches report p50/p90/p99/p999 of simulated latencies; the paper's claims
// are about median-vs-tail shape (jitter), so percentile fidelity in the
// 1us..100s range at ~2% relative error is sufficient.
//
// Plain single-threaded state: the simulator runs one event loop, and each
// histogram belongs to the one component that records into it.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace aurora {

/// Fixed-layout histogram: 64 log2 major buckets x 16 linear sub-buckets,
/// covering the full non-negative int64 range. O(1) record, O(buckets)
/// percentile.
class Histogram {
 public:
  Histogram();

  void Record(SimDuration value_us);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  SimDuration min() const { return count_ ? min_ : 0; }
  SimDuration max() const { return max_; }
  double Mean() const;

  /// Value at quantile q in [0, 1]. Returns 0 for an empty histogram.
  SimDuration Percentile(double q) const;

  SimDuration P50() const { return Percentile(0.50); }
  SimDuration P90() const { return Percentile(0.90); }
  SimDuration P99() const { return Percentile(0.99); }
  SimDuration P999() const { return Percentile(0.999); }

  /// One-line summary: "n=... mean=... p50=... p99=... max=..." (all us).
  std::string Summary() const;

  /// Exposes the bucket index mapping so tests can pin the boundaries.
  /// Record() is O(1): index = msb via countl_zero + 4 linear sub-bucket
  /// bits — no linear scan over bucket edges.
  static int BucketIndexForTest(SimDuration value) {
    return BucketFor(value);
  }

 private:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kBucketCount = 64 * kSubBuckets;

  static int BucketFor(SimDuration value);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  /// Sentinel int64 max while empty; min() masks it via the count.
  SimDuration min_;
  SimDuration max_ = 0;
};

}  // namespace aurora
