// Crash recovery's decisions (§2.4, Figure 4) as pure functions.
//
// Recovery asks the storage fleet two questions and decides everything
// from the answers: which SCLs a read quorum of each protection group
// vouches for (the probe round), and which LSNs the best segment of each
// group holds above a floor (the tail round). `PlanRecovery` turns the
// probe replies into per-PG completion points and a tail floor;
// `FinishRecovery` turns the tail replies into VCL, VDL and the
// truncation range, or asks for a deeper tail window. Neither touches the
// simulator: `DbInstance::Open` keeps only the sends, the retry timers,
// the generation checks and the final install, so restart analysis can be
// checked exhaustively apart from its execution.
//
// `ReadQuorumScl` is the one SCL-probe rule of the tree. Crash recovery
// uses it per PG; the repair planner, a manual replacement and AZ expand
// use it for a new member's hydration target (§4.1).

#pragma once

#include <map>
#include <optional>
#include <vector>

#include "src/common/interval_set.h"
#include "src/common/types.h"
#include "src/log/hot_log.h"
#include "src/quorum/geometry.h"
#include "src/quorum/membership.h"
#include "src/storage/messages.h"

namespace aurora::engine {

/// New LSNs after crash recovery are allocated above the truncation range
/// (§2.4); this is the width of the annulled gap.
inline constexpr Lsn kTruncationGap = 1ULL << 30;

/// SCL-probe replies of one protection group, one per responding segment.
/// How repeat replies fold is the caller's choice.
using SclProbeReplies = std::map<SegmentId, storage::SegmentStateResponse>;

/// What a read quorum of hydrated members vouches for.
struct QuorumScl {
  Lsn scl = kInvalidLsn;
  /// A hydrated responder holding `scl`; ties go to the highest id.
  SegmentId segment = kInvalidSegment;
};

/// The max SCL over the distinct hydrated responders, once they satisfy
/// `config`'s own read set; nullopt before that. Un-hydrated replies
/// never count.
std::optional<QuorumScl> ReadQuorumScl(const quorum::PgConfig& config,
                                       const SclProbeReplies& replies);

/// The outcome of the probe round.
struct RecoveryPlan {
  /// Per PG: the recovered PGCL and the segment the tail is fetched from.
  std::map<ProtectionGroupId, QuorumScl> pgs;
  /// LSNs known present: below the lowest PGCL, each responder's GC floor
  /// and the ranges earlier recoveries annulled.
  IntervalSet present;
  /// Tail fetches list records above this LSN.
  Lsn tail_floor = kInvalidLsn;
};

/// nullopt until every PG of `geometry` has a read quorum of hydrated
/// replies in `probes`.
std::optional<RecoveryPlan> PlanRecovery(
    const quorum::VolumeGeometry& geometry,
    const std::map<ProtectionGroupId, SclProbeReplies>& probes);

/// One PG's best-segment reply to a tail fetch.
struct TailReply {
  ProtectionGroupId pg = 0;
  storage::TailRecordsResponse response;
};

struct RecoveryPoints {
  /// Set when no complete MTR lies at or below VCL within the fetched
  /// window: fetch the tails again from this lower floor.
  std::optional<Lsn> deeper_floor;
  Lsn vcl = kInvalidLsn;
  /// The last complete MTR at or below VCL (VCL itself if none).
  Lsn vdl = kInvalidLsn;
  /// Everything above VDL is annulled.
  log::TruncationRange truncation;
};

/// VCL, VDL and the truncation range from `plan` and every tail reply
/// received since it was made, in arrival order. Records above their
/// PG's recovered PGCL are beyond the provable point and ignored.
RecoveryPoints FinishRecovery(const RecoveryPlan& plan,
                              const std::vector<TailReply>& tails);

/// True once every PG's write set has accepted the new volume epoch and
/// truncation, its best segment included: that segment's post-truncation
/// SCL seeds the group's new chain tail.
bool EpochInstalled(
    const quorum::VolumeGeometry& geometry, const RecoveryPlan& plan,
    const std::map<ProtectionGroupId, quorum::SegmentSet>& acks);

}  // namespace aurora::engine
