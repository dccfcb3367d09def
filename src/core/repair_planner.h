// Autonomous Figure-5 repair: turns HealthMonitor suspicions into
// membership transitions, end to end, without consensus and without any
// blocking helper.
//
// Per suspected segment the planner runs one job through this state
// machine (every edge is an ordinary quorum operation; the job itself is
// only planner-local state and can be re-derived from suspicion at any
// time). Each step is one of AuroraCluster's Figure-5 building blocks,
// the same ones the *Blocking membership operations run to completion:
//
//   kProbing        async SCL probes of the group's members establish the
//     │             hydration target (engine::ReadQuorumScl: max SCL once
//     │             the hydrated responders satisfy the group's read set).
//     │             Aborted if suspicion clears first.
//   kBeginInstall   BeginReplace(old, fresh) computed; the replacement
//     │             segment is created un-hydrated on a live host in the
//     │             same AZ; the epoch+1 dual config installs at a write
//     │             quorum of the OLD config (retried until it lands —
//     │             membership installs are monotone and idempotent at
//     │             the nodes, so re-sending is always safe).
//   kHydrating      the replacement pulls from peers/archive. Exits:
//     │               hydrated            → kCommitInstall (Figure-5
//     │                                     roll-forward, epoch+2)
//     │               suspicion cleared   → kRevertInstall (the suspect
//     │                                     acked again; roll-back,
//     │                                     epoch+2, replacement dropped)
//     │               job deadline        → kRevertInstall (placement
//     │                                     went nowhere; a fresh job
//     │                                     will pick a new host)
//   kCommitInstall / kRevertInstall
//                   the exit config installs at a write quorum of the
//                   dual config, then the loser segment is dropped and
//                   the job erased.
//
// Concurrency is bounded per AZ and globally, and at most one job runs
// per protection group (the Figure-5 slot machinery supports nesting,
// but eager bounded repair keeps blast radius small — the paper's point
// is that each change is cheap, not that many must run at once). On a
// multi-tenant fleet (DESIGN.md §11) suspects compete for those bounded
// slots, so candidates are ranked most-degraded PG first: a tenant one
// failure away from losing write quorum is repaired before a tenant with
// a single slow segment, regardless of which volume raised the suspicion
// first. With at most two jobs fleet-wide, no server hosts more than two
// hydration pulls at once. MTTR (suspicion → commit) is recorded to
// `aurora.repair.mttr_us`.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/engine/recovery_plan.h"
#include "src/quorum/membership.h"

namespace aurora::core {

class AuroraCluster;
class HealthMonitor;

class RepairPlanner {
 public:
  enum class JobState {
    kProbing,
    kBeginInstall,
    kHydrating,
    kCommitInstall,
    kRevertInstall,
  };

  struct RepairJob {
    SegmentId old_segment = kInvalidSegment;
    SegmentId new_segment = kInvalidSegment;
    /// Owning volume: pg ids are per-volume ordinals on a shared fleet,
    /// so (volume, pg) — not pg alone — names the protection group.
    VolumeId volume = 0;
    ProtectionGroupId pg = 0;
    AzId az = 0;
    JobState state = JobState::kProbing;
    /// When the planner decided to act (job creation).
    SimTime decided_at = 0;
    /// Monitor evidence captured at decision time; MTTR base.
    SimTime suspected_since = 0;
    SimTime probe_deadline = 0;
    SimTime deadline = 0;
    Lsn target_scl = kInvalidLsn;
    /// Hydrated SCL-probe replies, one per member, keeping each member's
    /// highest SCL: a member replying in several probe rounds counts once
    /// toward the read quorum (AuroraCluster::ProbeSclsAsync folds them).
    std::shared_ptr<engine::SclProbeReplies> probes =
        std::make_shared<engine::SclProbeReplies>();
    NodeId host_node = kInvalidNode;
    bool install_in_flight = false;
    uint64_t install_attempts = 0;
    SimTime last_pull_at = 0;
    /// The dual (mid-change) config while one is pending, and the chosen
    /// exit config during kCommitInstall/kRevertInstall.
    std::optional<quorum::PgConfig> pending_config;
    std::optional<quorum::PgConfig> exit_config;
  };

  struct PlannerStats {
    uint64_t jobs_started = 0;
    uint64_t begun = 0;
    uint64_t committed = 0;
    uint64_t reverted = 0;
    uint64_t failed = 0;
    uint64_t aborted_before_begin = 0;
  };

  RepairPlanner(AuroraCluster* cluster, HealthMonitor* monitor);

  void Start();
  void Stop();
  bool running() const { return running_; }

  /// Active jobs keyed by the suspected (old) segment; completed jobs are
  /// erased, so this is the planner's live working set.
  const std::map<SegmentId, RepairJob>& jobs() const { return jobs_; }
  size_t ActiveCount() const { return jobs_.size(); }
  const PlannerStats& stats() const { return stats_; }
  /// Suspicion→commit latency (MTTR) of every committed repair.
  const Histogram& mttr() const { return mttr_; }

 private:
  void Tick();
  void StartNewJobs();
  void AdvanceJobs();
  void BeginChange(RepairJob& job);
  void StartInstall(RepairJob& job);
  void FinishCommit(RepairJob& job);
  void FinishRevert(RepairJob& job);
  size_t JobsInAz(AzId az) const;
  bool PgHasJob(VolumeId volume, ProtectionGroupId pg) const;

  AuroraCluster* cluster_;
  HealthMonitor* monitor_;
  bool running_ = false;
  uint64_t generation_ = 0;

  std::map<SegmentId, RepairJob> jobs_;
  PlannerStats stats_;
  Histogram mttr_;
};

}  // namespace aurora::core
