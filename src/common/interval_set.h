// Ordered set of disjoint closed integer intervals.
//
// Two protocol uses:
//  * segment hot logs track the LSN ranges received so far; the gap list
//    drives gossip (§2.3) and SCL computation,
//  * crash recovery records a truncation range that annuls log records
//    beyond the recomputed VCL (§2.4, Figure 4).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aurora {

/// A closed interval [lo, hi] of uint64 values.
struct Interval {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool Contains(uint64_t v) const { return lo <= v && v <= hi; }
  bool operator==(const Interval&) const = default;
};

/// Maintains disjoint, coalesced intervals. Insertion merges adjacent and
/// overlapping ranges. All operations are O(log n) amortized.
class IntervalSet {
 public:
  void Add(uint64_t value) { AddRange(value, value); }
  void AddRange(uint64_t lo, uint64_t hi);

  bool Contains(uint64_t value) const;

  /// True iff [lo, hi] is fully covered.
  bool ContainsRange(uint64_t lo, uint64_t hi) const;

  bool Empty() const { return intervals_.empty(); }
  size_t IntervalCount() const { return intervals_.size(); }
  uint64_t ValueCount() const;

  /// Largest value V such that [floor, V] is fully contained, or floor-1
  /// if even `floor` is missing. This is exactly the SCL computation: the
  /// inclusive upper bound of the gap-free prefix starting at `floor`.
  uint64_t ContiguousUpperBound(uint64_t floor) const;

  /// Gaps between `lo` and `hi` (inclusive) not covered by the set.
  std::vector<Interval> GapsIn(uint64_t lo, uint64_t hi) const;

  /// Removes everything above `hi` (exclusive truncation keeps [.., hi]).
  void TruncateAbove(uint64_t hi);

  std::string ToString() const;

  bool operator==(const IntervalSet& other) const {
    return intervals_ == other.intervals_;
  }

 private:
  // Key: interval lower bound; value: upper bound.
  std::map<uint64_t, uint64_t> intervals_;
};

}  // namespace aurora
