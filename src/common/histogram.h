// Log-bucketed latency histogram with percentile queries.
//
// Benches report p50/p90/p99/p999 of simulated latencies; the paper's claims
// are about median-vs-tail shape (jitter), so percentile fidelity in the
// 1us..100s range at ~2% relative error is sufficient.
//
// Recording is thread-safe (relaxed atomics on fixed-layout cells), so a
// histogram handle from the metrics registry may be shared across threads.
// Readers (percentiles, copies, Merge) take relaxed per-cell snapshots —
// coherent values, not a point-in-time cut — which is exact whenever no
// recorder is running concurrently (between events, at run end), the only
// places the repo reads them.

#pragma once

#include <atomic>
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
  /// Snapshot copy (relaxed reads); histograms are returned by value from
  /// bench scenarios after their runs quiesce.
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Record(SimDuration value_us);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  SimDuration min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  SimDuration max() const { return max_.load(std::memory_order_relaxed); }
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
  void CopyFrom(const Histogram& other);

  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// Sentinel int64 max while empty; min() masks it via the count.
  std::atomic<SimDuration> min_;
  std::atomic<SimDuration> max_{0};
};

}  // namespace aurora
