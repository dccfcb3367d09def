// Protection-group membership: configuration, epochs, and the two-step
// reversible membership-change state machine of §4.1 / Figure 5.
//
// A protection group has six member slots. During a membership change a
// slot temporarily holds TWO alternatives (the suspect old segment and its
// replacement); the effective write set is the AND over all candidate
// memberships (cross product of slot alternatives) and the effective read
// set is the OR. Every transition increments the membership epoch and is
// itself installed via a quorum write, so changes have the same failure
// tolerance as ordinary I/O and never block reads or writes.
//
// Transition states (Figure 5, epochs from the paper's example):
//
//   stable(e=1)      one alternative per slot; quorums per QuorumModel.
//     │ BeginReplace(F, G)
//   pending(e=2)     suspect slot holds {F, G}; write = 4/6{ABCDEF} ∧
//     │              4/6{ABCDEG}, read = 3/6{ABCDEF} ∨ 3/6{ABCDEG}.
//     │              Writing to ABCD alone satisfies BOTH conjuncts, so a
//     │              healthy majority keeps full I/O availability. A
//     │              second failure mid-change (say E) nests another
//     │              Begin: 4 candidate memberships, still non-blocking.
//     ├─ CommitReplace(F) → stable(e=3) on ABCDEG (G finished hydrating)
//     └─ RevertReplace(F) → stable(e=3) on ABCDEF (F came back; the
//                           replacement is discarded)
//
// Both exits are always one further epoch away — that is the
// "reversible" in §4.1, and DESIGN.md §5 invariant 7 (membership
// reversibility): from any intermediate state, roll-forward and roll-back
// both preserve the overlap rules and all data acknowledged under any
// epoch. `TransitionIsSafe` proves each hop; the hydration gate on commit
// is operational, not combinatorial (see EXPERIMENTS.md "Mid-change read
// quorums" note).
//
// Epoch fencing (§2.4 + §4.1; DESIGN.md §5 invariant 6): every I/O
// carries the issuer's epoch vector (volume epoch, membership epoch,
// geometry epoch — EpochVector in common/types.h). A storage node
// rejects any request whose membership epoch is stale for the target
// segment, and the driver discards acks from stale-epoch segments
// (`driver.stale_epoch_acks` in DESIGN.md §5b). Because the new config is
// itself installed at a write quorum before use, and any future write
// quorum overlaps that install (rule 2), a writer still on epoch e can
// never assemble a quorum once e+1 exists — membership changes fence
// exactly like crash-recovery volume epochs, with no lease to wait out.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/quorum/quorum_set.h"

namespace aurora::quorum {

/// A segment replica: where it lives and whether it stores materialized
/// data blocks (full) or redo log only (tail, §4.2).
struct SegmentInfo {
  SegmentId id = kInvalidSegment;
  NodeId node = kInvalidNode;
  AzId az = 0;
  bool is_full = true;
  /// Owning volume (tenant). Segment servers host segments from many
  /// volumes, keyed by (volume, pg, segment); the volume rides in the
  /// config so every layer that sees a membership sees its tenant.
  /// Defaults to 0, the single-volume legacy shape.
  VolumeId volume = 0;

  bool operator==(const SegmentInfo&) const = default;
};

/// Which quorum construction a protection group uses.
enum class QuorumModel {
  /// V=6, Vw=4, Vr=3 over identical members (§2.1).
  kUniform46,
  /// 3 full + 3 tail segments (§4.2): write = 4/6 ∨ 3/3 full,
  /// read = 3/6 ∧ 1/3 full.
  kFullTail,
  /// Degraded 3/4 mode for extended AZ loss (§4.1 volume geometry note).
  kUniform34,
};

/// Immutable snapshot of one protection group's membership at one epoch.
/// Transitions produce new configs with epoch+1.
class PgConfig {
 public:
  PgConfig() = default;

  /// Creates an epoch-1 config with one segment per slot.
  static PgConfig Create(ProtectionGroupId pg, QuorumModel model,
                         std::vector<SegmentInfo> members);

  ProtectionGroupId pg() const { return pg_; }
  MembershipEpoch epoch() const { return epoch_; }
  QuorumModel model() const { return model_; }

  /// Slot alternatives; inner vector has 1 entry normally, 2 mid-change.
  const std::vector<std::vector<SegmentInfo>>& slots() const {
    return slots_;
  }

  /// Union of all alternatives in all slots (where writes are sent).
  std::vector<SegmentInfo> AllMembers() const;

  bool ContainsSegment(SegmentId id) const;
  const SegmentInfo* FindSegment(SegmentId id) const;

  /// True while any slot holds two alternatives.
  bool HasPendingChange() const;

  /// The other alternative in `id`'s slot while that slot is mid-change
  /// (a suspect's replacement, or a replacement's suspect); nullptr when
  /// `id` is in no pending slot.
  const SegmentInfo* PendingPartner(SegmentId id) const;

  /// The cross product of slot alternatives: each candidate is a possible
  /// final membership (Figure 5 shows 2 candidates after one failure,
  /// §4.1 shows 4 after a second failure mid-change).
  std::vector<std::vector<SegmentInfo>> CandidateMemberships() const;

  /// Effective write quorum: AND over candidates.
  QuorumSet WriteSet() const;
  /// Effective read quorum: OR over candidates.
  QuorumSet ReadSet() const;

  /// Starts replacing `old_id` with `replacement`: the slot gains an
  /// alternative, epoch+1. Fails if old_id is unknown, already mid-change
  /// in its slot, or replacement id already present.
  Result<PgConfig> BeginReplace(SegmentId old_id,
                                SegmentInfo replacement) const;

  /// Completes the change: drops `old_id`, keeps its alternative, epoch+1.
  Result<PgConfig> CommitReplace(SegmentId old_id) const;

  /// Reverses the change: keeps `old_id`, drops its alternative, epoch+1
  /// (the suspect member came back; §4.1 "If F comes back, we can make a
  /// second membership change back to ABCDEF").
  Result<PgConfig> RevertReplace(SegmentId old_id) const;

  /// Switches the quorum model (e.g. 4/6 -> 3/4 for extended AZ loss),
  /// epoch+1. Requires no pending change.
  Result<PgConfig> WithModel(QuorumModel model) const;

  /// §4.1: "moving from a 4/6 write quorum to 3/4 to handle the extended
  /// loss of an AZ" — removes the lost AZ's members and switches to the
  /// 3/4 model, epoch+1. Safe: any 3 of the surviving 4 overlaps any
  /// prior 4-of-6 write (3 + 4 > 6 on the 6-member universe). Requires no
  /// pending change.
  Result<PgConfig> ShrinkAfterAzLoss(AzId lost_az) const;

  /// Re-expands to the 4/6 model with two fresh members in `restored_az`
  /// (the AZ recovered or capacity moved elsewhere), epoch+1. The new
  /// members must hydrate before any subsequent shrink abandons old state.
  Result<PgConfig> ExpandToSix(const std::vector<SegmentInfo>& fresh) const;

  std::string ToString() const;

  bool operator==(const PgConfig&) const = default;

 private:
  QuorumSet QuorumForCandidate(const std::vector<SegmentInfo>& candidate,
                               bool write) const;
  /// Collapses `old_id`'s pending slot to `old_id` (keep_old) or to its
  /// partner, epoch+1.
  Result<PgConfig> SettlePending(SegmentId old_id, bool keep_old) const;

  ProtectionGroupId pg_ = 0;
  MembershipEpoch epoch_ = 0;
  QuorumModel model_ = QuorumModel::kUniform46;
  std::vector<std::vector<SegmentInfo>> slots_;
};

/// Debug-mode proof that a transition old→next preserves the §2.1 quorum
/// rules: next's read overlaps next's write, and next's write overlaps
/// old's write (so no two writers across the transition can both succeed
/// without a common witness). Exhaustive; call from tests and from the
/// membership driver in debug builds.
bool TransitionIsSafe(const PgConfig& old_config, const PgConfig& next_config);

}  // namespace aurora::quorum
