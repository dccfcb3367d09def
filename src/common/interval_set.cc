#include "src/common/interval_set.h"

#include <cassert>

namespace aurora {

void IntervalSet::AddRange(uint64_t lo, uint64_t hi) {
  assert(lo <= hi);
  // Find the first interval that could merge with [lo, hi]: any interval
  // whose upper bound >= lo-1 (adjacency merges too).
  auto it = intervals_.lower_bound(lo);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second + 1 >= lo && prev->second >= prev->first) {
      it = prev;
    }
  }
  uint64_t new_lo = lo;
  uint64_t new_hi = hi;
  while (it != intervals_.end() && it->first <= (hi == UINT64_MAX ? hi : hi + 1)) {
    if (it->second + 1 < lo && it->second != UINT64_MAX) {
      ++it;
      continue;
    }
    new_lo = std::min(new_lo, it->first);
    new_hi = std::max(new_hi, it->second);
    it = intervals_.erase(it);
  }
  intervals_[new_lo] = new_hi;
}

bool IntervalSet::Contains(uint64_t value) const {
  auto it = intervals_.upper_bound(value);
  if (it == intervals_.begin()) return false;
  --it;
  return it->second >= value;
}

bool IntervalSet::ContainsRange(uint64_t lo, uint64_t hi) const {
  auto it = intervals_.upper_bound(lo);
  if (it == intervals_.begin()) return false;
  --it;
  return it->first <= lo && it->second >= hi;
}

uint64_t IntervalSet::ValueCount() const {
  uint64_t n = 0;
  for (const auto& [lo, hi] : intervals_) n += hi - lo + 1;
  return n;
}

uint64_t IntervalSet::ContiguousUpperBound(uint64_t floor) const {
  auto it = intervals_.upper_bound(floor);
  if (it == intervals_.begin()) return floor - 1;
  --it;
  if (it->second < floor || it->first > floor) return floor - 1;
  return it->second;
}

std::vector<Interval> IntervalSet::GapsIn(uint64_t lo, uint64_t hi) const {
  std::vector<Interval> gaps;
  uint64_t cursor = lo;
  for (auto it = intervals_.begin(); it != intervals_.end() && cursor <= hi;
       ++it) {
    if (it->second < cursor) continue;
    if (it->first > hi) break;
    if (it->first > cursor) {
      gaps.push_back({cursor, std::min(hi, it->first - 1)});
    }
    if (it->second >= hi) {
      cursor = hi + 1;
      if (cursor == 0) return gaps;  // hi == UINT64_MAX wrapped
      break;
    }
    cursor = it->second + 1;
  }
  if (cursor <= hi) gaps.push_back({cursor, hi});
  return gaps;
}

void IntervalSet::TruncateAbove(uint64_t hi) {
  auto it = intervals_.upper_bound(hi);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > hi) prev->second = hi;
  }
  intervals_.erase(it, intervals_.end());
}

std::string IntervalSet::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [lo, hi] : intervals_) {
    if (!first) out += ", ";
    first = false;
    out += "[" + std::to_string(lo) + "," + std::to_string(hi) + "]";
  }
  out += "}";
  return out;
}

}  // namespace aurora
