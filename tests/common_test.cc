// Unit tests for src/common: Status/Result, RNG and distributions,
// Histogram percentiles, CRC32C vectors, and IntervalSet (including a
// randomized model check against std::set).

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/histogram.h"
#include "src/common/interval_set.h"
#include "src/common/random.h"
#include "src/common/status.h"

namespace aurora {
namespace {

// ---------------------------------------------------------------------- //
// Status / Result

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CodesAndMessages) {
  Status st = Status::StaleEpoch("epoch 3 < 5");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsStaleEpoch());
  EXPECT_EQ(st.code(), StatusCode::kStaleEpoch);
  EXPECT_EQ(st.ToString(), "StaleEpoch: epoch 3 < 5");
}

TEST(Status, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Conflict("x").IsConflict());
  EXPECT_TRUE(Status::QuorumUnavailable("x").IsQuorumUnavailable());
  EXPECT_TRUE(Status::Fenced("x").IsFenced());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> ok_result = 42;
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  EXPECT_TRUE(ok_result.status().ok());

  Result<int> err_result = Status::NotFound("gone");
  EXPECT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsNotFound());
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// ---------------------------------------------------------------------- //
// Rng & distributions

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) heads++;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(LatencyDistribution, ConstantAndUniform) {
  Rng rng(1);
  auto constant = LatencyDistribution::Constant(250);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(constant.Sample(rng), 250);
  auto uniform = LatencyDistribution::Uniform(10, 20);
  for (int i = 0; i < 100; ++i) {
    const SimDuration v = uniform.Sample(rng);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
}

TEST(LatencyDistribution, LogNormalMedianApproximate) {
  Rng rng(5);
  auto dist = LatencyDistribution::LogNormal(500, 0.3);
  std::vector<SimDuration> samples;
  for (int i = 0; i < 10001; ++i) samples.push_back(dist.Sample(rng));
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(static_cast<double>(samples[5000]), 500.0, 50.0);
}

TEST(Zipfian, SkewsTowardLowRanks) {
  Rng rng(3);
  ZipfianGenerator zipf(1000, 0.99);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next(rng) < 100) low++;
  }
  // With theta=0.99 the head is heavily favored.
  EXPECT_GT(low, n / 2);
}

// ---------------------------------------------------------------------- //
// Histogram

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P50(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 10);
  EXPECT_NEAR(h.Mean(), 5.5, 0.01);
  EXPECT_LE(h.P50(), 6);
  EXPECT_GE(h.P50(), 5);
}

TEST(Histogram, PercentileAccuracyWithin2Percent) {
  Histogram h;
  Rng rng(17);
  std::vector<SimDuration> values;
  for (int i = 0; i < 100000; ++i) {
    const SimDuration v = rng.NextInRange(1, 1000000);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact =
        static_cast<double>(values[static_cast<size_t>(q * values.size())]);
    const double approx = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(approx / exact, 1.0, 0.08) << "q=" << q;
  }
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(Histogram, CopyIsAnIndependentSnapshot) {
  Histogram h;
  h.Record(10);
  const Histogram copy = h;
  h.Record(1000);
  EXPECT_EQ(copy.count(), 1u);
  EXPECT_EQ(copy.max(), 10);
  EXPECT_EQ(copy.P50(), 10);
  EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, BucketBoundariesArePinned) {
  // The bucket layout (64 log2 majors x 16 linear sub-buckets) is part of
  // the percentile-accuracy contract. Pin exact edges so any change to the
  // O(1) index computation that shifts a boundary fails loudly rather than
  // silently skewing every reported latency.
  for (SimDuration v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::BucketIndexForTest(v), static_cast<int>(v));
  }
  EXPECT_EQ(Histogram::BucketIndexForTest(-7), 0);  // clamped
  EXPECT_EQ(Histogram::BucketIndexForTest(16), 16);
  EXPECT_EQ(Histogram::BucketIndexForTest(31), 31);
  EXPECT_EQ(Histogram::BucketIndexForTest(32), 32);   // major 2 starts
  EXPECT_EQ(Histogram::BucketIndexForTest(33), 32);   // 2-wide sub-buckets
  EXPECT_EQ(Histogram::BucketIndexForTest(34), 33);
  EXPECT_EQ(Histogram::BucketIndexForTest(63), 47);
  EXPECT_EQ(Histogram::BucketIndexForTest(64), 48);
  EXPECT_EQ(Histogram::BucketIndexForTest(1LL << 40), (40 - 4 + 1) * 16);
  // Monotone non-decreasing, never skipping more than one bucket.
  int prev = 0;
  for (SimDuration v = 1; v < 4096; ++v) {
    const int b = Histogram::BucketIndexForTest(v);
    EXPECT_GE(b, prev) << "v=" << v;
    EXPECT_LE(b, prev + 1) << "v=" << v;
    prev = b;
  }
}

// ---------------------------------------------------------------------- //
// CRC32C

TEST(Crc32c, KnownVectors) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32c, DetectsBitFlip) {
  std::string data = "the quick brown fox";
  const uint32_t before = Crc32c(data);
  data[3] ^= 0x01;
  EXPECT_NE(Crc32c(data), before);
}

TEST(Crc32c, SeedChaining) {
  const std::string full = "hello world";
  const uint32_t whole = Crc32c(full);
  const uint32_t chained = Crc32c(std::string_view("world"),
                                  Crc32c(std::string_view("hello ")));
  // CRC-32C chaining via seed-as-previous-CRC is how the codec uses it.
  EXPECT_EQ(whole, chained);
}

// Reference: the old byte-at-a-time loop with its table folded back into
// eight bit steps. The slice-by-8 implementation must reproduce it.
uint32_t BytewiseCrc32c(const uint8_t* p, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32c, MatchesBytewiseReference) {
  Rng rng(17);
  std::vector<uint8_t> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextBounded(256));
  // Every length 0-1024 at every start alignment 0-7 (vector storage is
  // at least 8-byte aligned).
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, len), BytewiseCrc32c(p, len, 0))
          << "offset " << offset << " len " << len;
    }
  }
  // Chained seeds: split at every point, and seed from arbitrary values.
  const uint8_t* p = buf.data() + 3;
  const uint32_t whole = BytewiseCrc32c(p, 777, 0);
  for (size_t cut = 0; cut <= 777; ++cut) {
    ASSERT_EQ(Crc32c(p + cut, 777 - cut, Crc32c(p, cut)), whole) << cut;
  }
  for (int i = 0; i < 200; ++i) {
    const auto seed = static_cast<uint32_t>(rng.Next());
    const size_t len = rng.NextBounded(1025);
    ASSERT_EQ(Crc32c(buf.data(), len, seed),
              BytewiseCrc32c(buf.data(), len, seed));
  }
}

// ---------------------------------------------------------------------- //
// IntervalSet

TEST(IntervalSet, AddAndContains) {
  IntervalSet s;
  s.AddRange(5, 10);
  EXPECT_TRUE(s.Contains(5));
  EXPECT_TRUE(s.Contains(10));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_FALSE(s.Contains(11));
  EXPECT_TRUE(s.ContainsRange(6, 9));
  EXPECT_FALSE(s.ContainsRange(6, 11));
}

TEST(IntervalSet, MergesAdjacentAndOverlapping) {
  IntervalSet s;
  s.AddRange(1, 3);
  s.AddRange(4, 6);  // adjacent: merge
  EXPECT_EQ(s.IntervalCount(), 1u);
  s.AddRange(10, 20);
  s.AddRange(15, 25);  // overlapping: merge
  EXPECT_EQ(s.IntervalCount(), 2u);
  s.AddRange(7, 9);  // bridges [1,6] and [10,25]
  EXPECT_EQ(s.IntervalCount(), 1u);
  EXPECT_TRUE(s.ContainsRange(1, 25));
}

TEST(IntervalSet, ContiguousUpperBound) {
  IntervalSet s;
  EXPECT_EQ(s.ContiguousUpperBound(1), 0u);  // nothing: floor-1
  s.AddRange(1, 100);
  s.AddRange(105, 110);
  EXPECT_EQ(s.ContiguousUpperBound(1), 100u);
  s.AddRange(101, 104);
  EXPECT_EQ(s.ContiguousUpperBound(1), 110u);
}

TEST(IntervalSet, GapsIn) {
  IntervalSet s;
  s.AddRange(1, 3);
  s.AddRange(7, 8);
  auto gaps = s.GapsIn(1, 10);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], (Interval{4, 6}));
  EXPECT_EQ(gaps[1], (Interval{9, 10}));
}

TEST(IntervalSet, TruncateAbove) {
  IntervalSet s;
  s.AddRange(1, 10);
  s.AddRange(20, 30);
  s.TruncateAbove(25);
  EXPECT_TRUE(s.Contains(25));
  EXPECT_FALSE(s.Contains(26));
  s.TruncateAbove(5);
  EXPECT_EQ(s.IntervalCount(), 1u);
  EXPECT_EQ(s.ContiguousUpperBound(1), 5u);
}

TEST(IntervalSet, RandomizedModelCheck) {
  Rng rng(99);
  IntervalSet s;
  std::set<uint64_t> model;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t lo = rng.NextBounded(500);
    const uint64_t hi = lo + rng.NextBounded(20);
    s.AddRange(lo, hi);
    for (uint64_t v = lo; v <= hi; ++v) model.insert(v);
  }
  for (uint64_t v = 0; v < 600; ++v) {
    EXPECT_EQ(s.Contains(v), model.contains(v)) << v;
  }
  EXPECT_EQ(s.ValueCount(), model.size());
}

}  // namespace
}  // namespace aurora
