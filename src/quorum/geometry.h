// Volume geometry: the ordered list of protection groups that concatenate
// into a storage volume (§2.1), plus the geometry epoch that tracks volume
// growth and quorum-model changes (§4.1).
//
// Three independent epochs fence three kinds of staleness (DESIGN.md §5
// invariant 6; all three travel in the EpochVector on every I/O):
//
//   volume epoch      bumped by crash recovery (§2.4) — fences a dead
//                     writer's in-flight requests ("change the locks");
//   membership epoch  per-PG, bumped by each membership transition
//                     (membership.h) — fences I/O addressed under a
//                     superseded member list;
//   geometry epoch    bumped here when a PG is appended (volume growth)
//                     or a PG's quorum model changes (4/6 ↔ 3/4 for
//                     extended AZ loss, §4.1) — fences block→PG mapping:
//                     a writer with a stale geometry could route a block
//                     to the wrong group or apply the wrong quorum rule.
//
// Growth is consensus-free for the same reason membership changes are:
// the new geometry is installed at a write quorum of every affected PG
// before the writer uses it, and quorum-overlap rule 2 (quorum_set.h)
// guarantees a stale-geometry writer can no longer complete quorums. Per-
// PG allocation cursors (DESIGN.md §4b) keep readers independent of the
// cursors — block→PG mapping stays range-based via PgForBlock.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/quorum/membership.h"

namespace aurora::quorum {

/// Paper geometry (§2.1): every protection group keeps six copies, two in
/// each of three AZs, so the 4/6 write and 3/6 read quorums survive an AZ
/// loss plus one more failure (AZ+1).
inline constexpr size_t kAzCount = 3;
inline constexpr size_t kCopiesPerAz = 2;

/// The full shape of one volume: protection groups, block mapping, epochs.
///
/// Protection groups own contiguous block ranges (`blocks_per_pg` each);
/// every data block maps to exactly one PG. The geometry epoch increments
/// when a PG is appended (volume growth) or a PG's quorum model changes;
/// the membership epoch of each PG evolves independently.
class VolumeGeometry {
 public:
  VolumeGeometry() = default;
  VolumeGeometry(uint64_t blocks_per_pg, std::vector<PgConfig> pgs);

  GeometryEpoch geometry_epoch() const { return geometry_epoch_; }
  uint64_t blocks_per_pg() const { return blocks_per_pg_; }

  size_t PgCount() const { return pgs_.size(); }
  const std::vector<PgConfig>& pgs() const { return pgs_; }

  const PgConfig& Pg(ProtectionGroupId pg) const { return pgs_.at(pg); }
  Status UpdatePg(PgConfig config);

  /// Appends a protection group (volume growth); geometry epoch +1.
  void AddPg(PgConfig config);

  /// Which PG stores `block`. Blocks beyond the current geometry are an
  /// error (the engine grows the volume first).
  Result<ProtectionGroupId> PgForBlock(BlockId block) const;

  /// Total addressable blocks at the current geometry.
  uint64_t Capacity() const { return blocks_per_pg_ * pgs_.size(); }

  std::string ToString() const;

 private:
  uint64_t blocks_per_pg_ = 0;
  GeometryEpoch geometry_epoch_ = 0;
  std::vector<PgConfig> pgs_;
};

}  // namespace aurora::quorum
