#include "src/engine/consistency_tracker.h"

#include <algorithm>

namespace aurora::engine {

void ConsistencyTracker::ConfigurePg(ProtectionGroupId pg,
                                     quorum::QuorumSet write_set,
                                     std::vector<SegmentId> members) {
  PgTracking& tracking = pgs_[pg];
  tracking.write_set = std::move(write_set);
  // Keep SCLs for surviving members; drop departed ones.
  std::map<SegmentId, Lsn> kept;
  for (SegmentId m : members) {
    auto it = tracking.scls.find(m);
    if (it != tracking.scls.end()) kept[m] = it->second;
  }
  tracking.scls = std::move(kept);
  tracking.members = std::move(members);
  tracking.dirty = true;
}

void ConsistencyTracker::ObserveScl(ProtectionGroupId pg, SegmentId segment,
                                    Lsn scl) {
  auto it = pgs_.find(pg);
  if (it == pgs_.end()) return;
  Lsn& known = it->second.scls[segment];
  if (scl <= known) return;
  known = scl;
  it->second.dirty = true;
}

void ConsistencyTracker::RecordIssued(ProtectionGroupId pg, Lsn lsn) {
  auto it = pgs_.find(pg);
  if (it == pgs_.end()) return;
  if (lsn <= it->second.pgcl) return;
  std::deque<Lsn>& outstanding = it->second.outstanding;
  // The single writer issues LSNs in ascending order, so this is an O(1)
  // push; tolerate out-of-order or duplicate notifications defensively.
  if (outstanding.empty() || lsn > outstanding.back()) {
    outstanding.push_back(lsn);
    return;
  }
  auto pos = std::lower_bound(outstanding.begin(), outstanding.end(), lsn);
  if (pos == outstanding.end() || *pos != lsn) outstanding.insert(pos, lsn);
}

void ConsistencyTracker::RecordMtrComplete(Lsn lsn) {
  // Same monotonic shape as RecordIssued.
  if (mtr_points_.empty() || lsn > mtr_points_.back()) {
    mtr_points_.push_back(lsn);
    return;
  }
  auto pos = std::lower_bound(mtr_points_.begin(), mtr_points_.end(), lsn);
  if (pos == mtr_points_.end() || *pos != lsn) mtr_points_.insert(pos, lsn);
}

void ConsistencyTracker::SetMaxAllocated(Lsn lsn) {
  max_allocated_ = std::max(max_allocated_, lsn);
}

Lsn ConsistencyTracker::ComputePgcl(const PgTracking& tracking) const {
  // Find the largest SCL value X such that the set of members with
  // SCL >= X satisfies the write quorum. Iterate distinct SCLs downward:
  // the members at or above X are a prefix of the SCL-descending order.
  // Runs once per ack that moves an SCL; the sort buffers are reused
  // members so the hot path does not allocate.
  std::vector<std::pair<Lsn, SegmentId>>& by_scl = by_scl_scratch_;
  by_scl.clear();
  by_scl.reserve(tracking.scls.size());
  for (const auto& [segment, scl] : tracking.scls) {
    by_scl.emplace_back(scl, segment);
  }
  std::sort(by_scl.begin(), by_scl.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<SegmentId>& at_or_above = ids_scratch_;
  at_or_above.clear();
  for (const auto& [scl, segment] : by_scl) at_or_above.push_back(segment);
  size_t i = 0;
  while (i < by_scl.size()) {
    const Lsn x = by_scl[i].first;
    while (i < by_scl.size() && by_scl[i].first == x) ++i;
    if (x == kInvalidLsn) break;
    if (tracking.write_set.SatisfiedBy(
            std::span<const SegmentId>(at_or_above.data(), i))) {
      return x;
    }
  }
  return kInvalidLsn;
}

bool ConsistencyTracker::Advance() {
  const Lsn old_vcl = vcl_;
  const Lsn old_vdl = vdl_;
  Lsn vcl_bound = max_allocated_;
  for (auto& [pg, tracking] : pgs_) {
    // ComputePgcl depends only on the SCLs and the quorum shape, so a
    // clean PG would return what it returned last time.
    if (tracking.dirty) {
      tracking.pgcl = std::max(tracking.pgcl, ComputePgcl(tracking));
      tracking.dirty = false;
    }
    // Ascending deque: everything covered by PGCL drains off the front.
    while (!tracking.outstanding.empty() &&
           tracking.outstanding.front() <= tracking.pgcl) {
      tracking.outstanding.pop_front();
    }
    if (!tracking.outstanding.empty()) {
      // The first record of this PG above its PGCL has not met quorum;
      // VCL may not pass it (§2.3: "no pending writes preventing PGCL
      // from advancing").
      vcl_bound = std::min(vcl_bound, tracking.outstanding.front() - 1);
    }
  }
  vcl_ = std::max(vcl_, vcl_bound);
  // VDL: highest MTR completion point at or below VCL; passed points
  // drain off the front.
  Lsn last_passed = kInvalidLsn;
  while (!mtr_points_.empty() && mtr_points_.front() <= vcl_) {
    last_passed = mtr_points_.front();
    mtr_points_.pop_front();
  }
  if (last_passed != kInvalidLsn) {
    vdl_ = std::max(vdl_, last_passed);
  }
  return vcl_ != old_vcl || vdl_ != old_vdl;
}

Lsn ConsistencyTracker::pgcl(ProtectionGroupId pg) const {
  auto it = pgs_.find(pg);
  return it == pgs_.end() ? kInvalidLsn : it->second.pgcl;
}

void ConsistencyTracker::Reset(Lsn vcl, Lsn vdl, Lsn max_allocated) {
  for (auto& [pg, tracking] : pgs_) {
    tracking.outstanding.clear();
    tracking.pgcl = kInvalidLsn;
    tracking.scls.clear();
    tracking.dirty = true;
  }
  mtr_points_.clear();
  vcl_ = vcl;
  vdl_ = vdl;
  max_allocated_ = max_allocated;
}

void ConsistencyTracker::SeedPgcl(ProtectionGroupId pg, Lsn pgcl) {
  auto it = pgs_.find(pg);
  if (it != pgs_.end()) it->second.pgcl = std::max(it->second.pgcl, pgcl);
}

Lsn ConsistencyTracker::SclOf(ProtectionGroupId pg, SegmentId segment) const {
  auto it = pgs_.find(pg);
  if (it == pgs_.end()) return kInvalidLsn;
  auto scl = it->second.scls.find(segment);
  return scl == it->second.scls.end() ? kInvalidLsn : scl->second;
}

}  // namespace aurora::engine
