// Invariant auditor: protocol-level safety checks over a live cluster.
//
// The paper's central claim is that Aurora stays consistent "without
// distributed consensus" because every consistency point is established by
// local bookkeeping over quorum acknowledgements (§2.3, §3, §4). The
// auditor turns the claims behind that argument into executable checks,
// evaluated between simulator events — the points at which the system must
// be in a protocol-legal state. The chaos tests attach it at every event,
// so any schedule of crashes, partitions, scrub corruption, and membership
// changes that drives the cluster into an illegal state is caught at the
// first event boundary where it is visible, with a serialized snapshot and
// the seed for replay.
//
// Audited invariants (references are to the SIGMOD'18 paper):
//  1. scl-monotonic      Per-segment SCLs never regress (§2.3: the SCL is
//                        "the latest point ... below which all log records
//                        have been received"), except at explicit
//                        re-baselining events: truncation installation
//                        (§2.4), a volume-epoch change (recovery/restore),
//                        or a scrub dropping a corrupt record (§2.1).
//  2. pgcl-durable       Each PG's completion point is covered by a write
//                        quorum of member SCLs (§2.3: PGCL advances only
//                        over quorum-acknowledged writes). PGCL is a
//                        per-record quorum property, so members whose SCL
//                        legitimately trails it — down node (frozen SCL,
//                        durable disk), post-scrub hole awaiting gossip
//                        refill (§3.2), hydrating replacement (§4.1), or
//                        an out-of-order tail above a hole in repair —
//                        count as potentially covering, and only coverage
//                        loss persisting past ten gossip rounds fires.
//  3. vdl-le-vcl         VDL <= VCL <= highest allocated LSN (§2.3: "the
//                        volume durable LSN ... must be at or below the
//                        volume complete LSN").
//  4. acked-scn-durable  No acknowledged commit is ever above the volume
//                        durable point, across writer incarnations (§2.3
//                        commit protocol + §2.4 crash recovery: recovery
//                        must never lose an acked commit).
//  5. single-epoch-quorum Segments still at an older volume epoch can never
//                        form a write quorum once a newer-epoch writer is
//                        open (§2.4/§4.1 fencing: "storage nodes will not
//                        accept requests at stale volume epochs").
//  6. pgmrpl-le-views    No segment's GC floor (PGMRPL) is above any active
//                        read view — the writer's VDL, the writer's oldest
//                        open snapshot, or any replica's minimum read point
//                        (§3.4: versions are reclaimed only below the
//                        fleet-wide minimum read point).
//  7. membership-epoch-monotonic  Per-PG membership epochs (and the volume
//                        epoch) as published by the metadata service never
//                        regress (§4: every Figure-5 transition — begin,
//                        commit, AND revert — increments the epoch; rolling
//                        back never reuses an old one).
//  8. repair-quiet-decision  The repair planner never holds an active job
//                        against a segment the health monitor has never
//                        suspected (§4.1: repair is driven by suspicion
//                        evidence, not by whim), and a job whose suspect
//                        has produced fresh liveness evidence must revert
//                        promptly rather than plough on to commit.
//                        Requires ObserveControlPlane().
//  9. hydrating-read-exclusion  A segment the writer has observed to be
//                        mid-hydration never counts toward read-quorum
//                        eligibility, and an un-hydrated segment store
//                        must never be considered read-complete by the
//                        open writer (§4.1: a hydrating replacement's
//                        prefix is incomplete by construction).
//
// The auditor is strictly read-only: it never schedules events and never
// mutates actor state, so an attached auditor cannot change an execution
// (determinism fingerprints are unaffected).
//
// Multi-tenant clusters (DESIGN.md §11): every check that reads "the
// writer" or "the geometry" runs once per volume against that volume's
// writer, geometry, and epoch lineage. Per-PG audit state is keyed by
// (volume, pg) — pg ids are per-volume ordinals on the shared fleet — and
// durability floors are per volume, since tenant LSN spaces never compare.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/types.h"
#include "src/core/cluster.h"

namespace aurora::core {

class HealthMonitor;
class RepairPlanner;

/// One invariant violation, captured at an event boundary.
struct AuditViolation {
  std::string invariant;  ///< slug, e.g. "vdl-le-vcl"
  std::string detail;     ///< human-readable specifics
  SimTime at = 0;         ///< virtual time of the boundary
  uint64_t event_index = 0;
  /// Full cluster snapshot serialized at detection time (first violation
  /// only; replaying the seed reproduces the rest).
  std::string snapshot;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(AuroraCluster* cluster);

  /// Hooks the cluster's simulator: checks run after every `every_n_events`
  /// executed events. Call Detach() before destroying the auditor if the
  /// cluster outlives it.
  void Attach(uint64_t every_n_events = 1);
  void Detach();

  /// Runs every check once, immediately (also what the hook calls).
  void CheckNow();

  bool ok() const { return violations_.empty(); }
  const std::vector<AuditViolation>& violations() const { return violations_; }
  uint64_t checks_run() const { return checks_run_; }

  /// Points the auditor at a self-healing control plane so the
  /// repair-quiet-decision check can correlate planner jobs with monitor
  /// suspicion evidence. Both pointers are observed read-only and must
  /// outlive the auditor (or be cleared with nullptrs first). The
  /// membership-epoch and hydration checks run regardless.
  void ObserveControlPlane(const HealthMonitor* monitor,
                           const RepairPlanner* planner);

  /// Forgets the acked-commit durability floor. Required after an
  /// intentional rewind of history — point-in-time restore discards
  /// acknowledged commits above the restore point by design (§2.1
  /// activity 6), which is not a protocol violation.
  void ResetDurabilityFloor();

  /// Serializes the observable cluster state (seed, consistency points,
  /// per-segment state, replica read points) as JSON for repro reports.
  std::string SnapshotJson() const;

  /// Human-readable digest of all violations (empty string when ok).
  std::string Report() const;

 private:
  void RunChecks();
  void AddViolation(const std::string& invariant, const std::string& detail);

  void CheckSclMonotonic();
  void CheckPgclDurable();
  void CheckVdlVclOrder();
  void CheckAckedScnDurable();
  void CheckSingleEpochQuorum();
  void CheckPgmrplBelowViews();
  void CheckMembershipEpochMonotonic();
  void CheckRepairQuietDecision();
  void CheckHydratingReadExclusion();

  AuroraCluster* cluster_;
  bool attached_ = false;

  const HealthMonitor* monitor_ = nullptr;
  const RepairPlanner* planner_ = nullptr;

  /// Last observed SCL per segment, with the re-baseline key that makes a
  /// regression legal: (volume epoch, truncation count, scrub drops).
  struct SclBaseline {
    Lsn scl = kInvalidLsn;
    std::tuple<VolumeEpoch, size_t, uint64_t> key{0, 0, 0};
  };
  std::map<SegmentId, SclBaseline> scl_seen_;

  /// Highest commit SCN ever acknowledged to a client, per volume, across
  /// writer incarnations (survives failover; reset only by
  /// ResetDurabilityFloor). Keyed by volume: each tenant writer has an
  /// independent LSN space, so floors never compare across tenants.
  std::map<VolumeId, Scn> durability_floor_;

  /// First sim time at which a PG's PGCL coverage (with every legal excuse
  /// applied) fell below a write quorum. Coverage must recover within
  /// kPgclRepairGrace — ten gossip rounds — or it is a violation. Keyed
  /// by (volume, pg): pg ids are per-volume ordinals on a shared fleet.
  static constexpr SimDuration kPgclRepairGrace = 1 * kSecond;
  std::map<ArchiveKey, SimTime> pgcl_uncovered_since_;

  /// Highest membership epoch seen per (volume, pg) and highest volume
  /// epoch seen per volume, from the metadata service. Epochs only move
  /// forward — independently per tenant.
  std::map<ArchiveKey, MembershipEpoch> membership_epoch_seen_;
  std::map<VolumeId, VolumeEpoch> volume_epoch_seen_;

  /// First sim time at which an active repair job's suspect was observed
  /// healthy again. Figure-5 transitions are reversible, so the planner is
  /// allowed a short window to notice and revert; holding the job open
  /// past the grace is a violation.
  static constexpr SimDuration kRepairRevertGrace = 500 * kMillisecond;
  std::map<SegmentId, SimTime> repair_unsuspect_since_;

  std::vector<AuditViolation> violations_;
  uint64_t checks_run_ = 0;
};

}  // namespace aurora::core
