#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

namespace aurora {

Histogram::Histogram()
    : buckets_(kBucketCount),
      min_(std::numeric_limits<SimDuration>::max()) {}

int Histogram::BucketFor(SimDuration value) {
  if (value < 0) value = 0;
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < kSubBuckets) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBucketBits;
  const int sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
  return (msb - kSubBucketBits + 1) * kSubBuckets + sub;
}

void Histogram::Record(SimDuration value_us) {
  if (value_us < 0) value_us = 0;
  buckets_[BucketFor(value_us)]++;
  min_ = std::min(min_, value_us);
  max_ = std::max(max_, value_us);
  sum_ += static_cast<double>(value_us);
  count_++;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

void Histogram::Reset() {
  *this = Histogram();
}

double Histogram::Mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

SimDuration Histogram::Percentile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * n + 0.5));
  const SimDuration observed_max = max();
  uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      // Reconstruct the upper edge of bucket i.
      const int major = i / kSubBuckets;
      const int sub = i % kSubBuckets;
      if (major == 0) return std::min<SimDuration>(sub, observed_max);
      const int msb = major + kSubBucketBits - 1;
      const int shift = msb - kSubBucketBits;
      const uint64_t base = 1ULL << msb;
      const uint64_t value =
          base + (static_cast<uint64_t>(sub) << shift) + (1ULL << shift) - 1;
      return std::min<SimDuration>(static_cast<SimDuration>(value),
                                   observed_max);
    }
  }
  return observed_max;
}

std::string Histogram::Summary() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1fus p50=%lldus p90=%lldus p99=%lldus "
                "p999=%lldus max=%lldus",
                static_cast<unsigned long long>(count()), Mean(),
                static_cast<long long>(P50()), static_cast<long long>(P90()),
                static_cast<long long>(P99()), static_cast<long long>(P999()),
                static_cast<long long>(max()));
  return std::string(buf);
}

}  // namespace aurora
