#include "src/core/invariant_auditor.h"

#include <algorithm>
#include <set>

#include "src/common/logging.h"
#include "src/core/health_monitor.h"
#include "src/core/repair_planner.h"

namespace aurora::core {

InvariantAuditor::InvariantAuditor(AuroraCluster* cluster)
    : cluster_(cluster) {}

void InvariantAuditor::Attach(uint64_t every_n_events) {
  cluster_->sim().SetInspector(every_n_events, [this]() { RunChecks(); });
  attached_ = true;
}

void InvariantAuditor::Detach() {
  if (attached_) cluster_->sim().ClearInspector();
  attached_ = false;
}

void InvariantAuditor::CheckNow() { RunChecks(); }

void InvariantAuditor::ObserveControlPlane(const HealthMonitor* monitor,
                                           const RepairPlanner* planner) {
  monitor_ = monitor;
  planner_ = planner;
  repair_unsuspect_since_.clear();
}

void InvariantAuditor::ResetDurabilityFloor() { durability_floor_.clear(); }

void InvariantAuditor::RunChecks() {
  checks_run_++;
  CheckSclMonotonic();
  CheckPgclDurable();
  CheckVdlVclOrder();
  CheckAckedScnDurable();
  CheckSingleEpochQuorum();
  CheckPgmrplBelowViews();
  CheckMembershipEpochMonotonic();
  CheckRepairQuietDecision();
  CheckHydratingReadExclusion();
}

void InvariantAuditor::AddViolation(const std::string& invariant,
                                    const std::string& detail) {
  AuditViolation v;
  v.invariant = invariant;
  v.detail = detail;
  v.at = cluster_->sim().Now();
  v.event_index = cluster_->sim().ExecutedEvents();
  // Snapshot only the first violation: it is the repro anchor; later ones
  // are usually cascades of the same root cause.
  if (violations_.empty()) v.snapshot = SnapshotJson();
  AURORA_ERROR << "INVARIANT VIOLATION [" << invariant << "] " << detail
               << " at t=" << v.at << " event=" << v.event_index;
  violations_.push_back(std::move(v));
}

// -- 1: per-segment SCL monotonicity ----------------------------------------

void InvariantAuditor::CheckSclMonotonic() {
  cluster_->ForEachSegment([this](storage::StorageNode* node,
                                  storage::SegmentStore* segment) {
    const std::tuple<VolumeEpoch, size_t, uint64_t> key{
        segment->volume_epoch(), segment->hot_log().truncations().size(),
        segment->stats().scrub_corruptions_found};
    auto& baseline = scl_seen_[segment->id()];
    if (key != baseline.key) {
      // Truncation install, epoch change (recovery/restore), or a scrub
      // drop legitimately rewinds the chain; re-anchor.
      baseline.key = key;
      baseline.scl = segment->scl();
      return;
    }
    const Lsn scl = segment->scl();
    if (baseline.scl != kInvalidLsn && scl < baseline.scl) {
      AddViolation("scl-monotonic",
                   "segment " + std::to_string(segment->id()) + " on node " +
                       std::to_string(node->id()) + " SCL regressed " +
                       std::to_string(baseline.scl) + " -> " +
                       std::to_string(scl));
    }
    baseline.scl = std::max(baseline.scl, scl);
  });
}

// -- 2: PGCL covered by a write quorum of SCLs ------------------------------

void InvariantAuditor::CheckPgclDurable() {
  cluster_->ForEachPgConfig([this](VolumeId volume,
                                   const quorum::PgConfig& pg) {
    engine::DbInstance* writer = cluster_->writer(volume);
    if (writer == nullptr || !writer->IsOpen()) return;
    const Lsn pgcl = writer->pgcl(pg.pg());
    if (pgcl == kInvalidLsn) return;
    quorum::SegmentSet covered;
    size_t observed_at_or_above = 0;
    for (const auto& member : pg.AllMembers()) {
      storage::StorageNode* node = cluster_->NodeForSegment(member.id);
      storage::SegmentStore* store =
          node != nullptr ? node->FindSegment(member.id) : nullptr;
      if (store == nullptr) continue;
      if (store->scl() != kInvalidLsn && store->scl() >= pgcl) {
        covered.insert(member.id);
        observed_at_or_above++;
        continue;
      }
      // Members we cannot fault for being below PGCL still count as
      // potentially covering: a down node's disk state is durable but its
      // SCL is frozen at crash time; a scrub that dropped a corrupt record
      // legally rewinds SCL until gossip refills the hole (§3.2); a
      // hydrating replacement has not caught up yet by design (§4.1); a
      // member holding records ABOVE its SCL has a hole awaiting gossip —
      // PGCL is a per-record quorum property (§2.3), so a healthy member's
      // contiguous prefix may trail PGCL while holes are in repair.
      const bool node_down = !cluster_->network().IsUp(member.node);
      const bool scrub_rewound = store->stats().scrub_corruptions_found > 0;
      const bool hole_in_repair =
          !store->hot_log().RecordsAbove(store->scl(), 1).empty();
      if (node_down || scrub_rewound || hole_in_repair || !store->hydrated()) {
        covered.insert(member.id);
      }
    }
    const ArchiveKey key = MakeArchiveKey(volume, pg.pg());
    if (pg.WriteSet().SatisfiedBy(covered)) {
      pgcl_uncovered_since_.erase(key);
      return;
    }
    // Even with every excuse applied, under-coverage can appear for a
    // moment (e.g. a just-restored node that has not yet received any
    // record or gossip round). Only PERSISTENT under-coverage — well past
    // the 100ms gossip cadence — is a protocol violation.
    const SimTime now = cluster_->sim().Now();
    auto [it, first] = pgcl_uncovered_since_.try_emplace(key, now);
    if (now - it->second < kPgclRepairGrace) return;
    {
      AddViolation("pgcl-durable",
                   "volume " + std::to_string(volume) + " pg " +
                       std::to_string(pg.pg()) + " PGCL " +
                       std::to_string(pgcl) +
                       " not covered by a write quorum of member SCLs (" +
                       std::to_string(observed_at_or_above) +
                       " observed at/above, " + std::to_string(covered.size()) +
                       " potentially covering)");
    }
  });
}

// -- 3: VDL <= VCL <= max allocated -----------------------------------------

void InvariantAuditor::CheckVdlVclOrder() {
  for (VolumeId volume : cluster_->metadata().VolumeIds()) {
    engine::DbInstance* writer = cluster_->writer(volume);
    if (writer == nullptr || !writer->IsOpen() ||
        writer->driver() == nullptr) {
      continue;
    }
    const Lsn vcl = writer->vcl();
    const Lsn vdl = writer->vdl();
    const Lsn max_allocated = writer->driver()->tracker().max_allocated();
    if (vdl > vcl) {
      AddViolation("vdl-le-vcl", "volume " + std::to_string(volume) +
                                     " VDL " + std::to_string(vdl) +
                                     " > VCL " + std::to_string(vcl));
    }
    if (max_allocated != kInvalidLsn && vcl > max_allocated) {
      AddViolation("vdl-le-vcl", "volume " + std::to_string(volume) +
                                     " VCL " + std::to_string(vcl) +
                                     " > max allocated LSN " +
                                     std::to_string(max_allocated));
    }
  }
}

// -- 4: acked commits stay durable across incarnations ----------------------

void InvariantAuditor::CheckAckedScnDurable() {
  for (VolumeId volume : cluster_->metadata().VolumeIds()) {
    engine::DbInstance* writer = cluster_->writer(volume);
    if (writer == nullptr) continue;
    Scn& floor = durability_floor_[volume];
    if (writer->max_acked_scn() != kInvalidLsn &&
        (floor == kInvalidLsn || writer->max_acked_scn() > floor)) {
      floor = writer->max_acked_scn();
    }
    if (!writer->IsOpen() || floor == kInvalidLsn) continue;
    if (floor > writer->vdl()) {
      AddViolation("acked-scn-durable",
                   "volume " + std::to_string(volume) + " acked SCN " +
                       std::to_string(floor) + " above VDL " +
                       std::to_string(writer->vdl()) +
                       " (an acknowledged commit was lost)");
    }
  }
}

// -- 5: no write quorum at a stale volume epoch -----------------------------

void InvariantAuditor::CheckSingleEpochQuorum() {
  cluster_->ForEachPgConfig([this](VolumeId volume,
                                   const quorum::PgConfig& pg) {
    engine::DbInstance* writer = cluster_->writer(volume);
    if (writer == nullptr || !writer->IsOpen()) return;
    const VolumeEpoch writer_epoch = writer->volume_epoch();
    quorum::SegmentSet stale;
    for (const auto& member : pg.AllMembers()) {
      storage::StorageNode* node = cluster_->NodeForSegment(member.id);
      storage::SegmentStore* store =
          node != nullptr ? node->FindSegment(member.id) : nullptr;
      if (store != nullptr && store->volume_epoch() < writer_epoch) {
        stale.insert(member.id);
      }
    }
    if (!stale.empty() && pg.WriteSet().SatisfiedBy(stale)) {
      AddViolation(
          "single-epoch-quorum",
          "volume " + std::to_string(volume) + " pg " +
              std::to_string(pg.pg()) + " has a full write quorum (" +
              std::to_string(stale.size()) +
              " segments) still below the open writer's volume epoch " +
              std::to_string(writer_epoch) +
              " — a stale-epoch writer could commit I/Os");
    }
  });
}

// -- 6: PGMRPL never passes an active read view -----------------------------

void InvariantAuditor::CheckPgmrplBelowViews() {
  // Collect active read views PER VOLUME: read views and PGMRPLs are LSNs
  // in their volume's private space, so cross-tenant comparison would be
  // meaningless. Replicas attach to the primary volume only.
  std::map<VolumeId, std::vector<std::pair<std::string, Lsn>>> views;
  for (VolumeId volume : cluster_->metadata().VolumeIds()) {
    engine::DbInstance* writer = cluster_->writer(volume);
    if (writer == nullptr || !writer->IsOpen()) continue;
    auto& volume_views = views[volume];
    volume_views.emplace_back("writer VDL", writer->vdl());
    const Lsn open_min = writer->txns().MinOpenReadLsn();
    if (open_min != kInvalidLsn) {
      volume_views.emplace_back("writer oldest open view", open_min);
    }
  }
  for (const auto& replica : cluster_->replicas()) {
    // A replica that has not yet learned a VDL (fresh attach, mid-crash)
    // has no views to protect.
    if (replica->vdl() == kInvalidLsn) continue;
    views[0].emplace_back("replica min read point", replica->MinReadPoint());
  }
  if (views.empty()) return;
  cluster_->ForEachSegment([this, &views](storage::StorageNode* node,
                                          storage::SegmentStore* segment) {
    if (!segment->hydrated()) return;
    const Lsn pgmrpl = segment->pgmrpl();
    if (pgmrpl == kInvalidLsn) return;
    auto it = views.find(segment->volume());
    if (it == views.end()) return;
    for (const auto& [what, lsn] : it->second) {
      if (pgmrpl > lsn) {
        AddViolation("pgmrpl-le-views",
                     "segment " + std::to_string(segment->id()) +
                         " on node " + std::to_string(node->id()) +
                         " (volume " + std::to_string(segment->volume()) +
                         ") PGMRPL " + std::to_string(pgmrpl) + " above " +
                         what + " " + std::to_string(lsn));
      }
    }
  });
}

// -- 7: membership epochs only move forward ---------------------------------

void InvariantAuditor::CheckMembershipEpochMonotonic() {
  for (VolumeId volume : cluster_->metadata().VolumeIds()) {
    const VolumeEpoch vepoch = cluster_->metadata().volume_epoch(volume);
    VolumeEpoch& seen = volume_epoch_seen_[volume];
    if (vepoch < seen) {
      AddViolation("membership-epoch-monotonic",
                   "volume " + std::to_string(volume) +
                       " metadata volume epoch regressed " +
                       std::to_string(seen) + " -> " + std::to_string(vepoch));
    }
    seen = std::max(seen, vepoch);
  }
  cluster_->ForEachPgConfig([this](VolumeId volume,
                                   const quorum::PgConfig& pg) {
    const MembershipEpoch epoch = pg.epoch();
    auto [it, first] = membership_epoch_seen_.try_emplace(
        MakeArchiveKey(volume, pg.pg()), epoch);
    if (!first && epoch < it->second) {
      AddViolation("membership-epoch-monotonic",
                   "volume " + std::to_string(volume) + " pg " +
                       std::to_string(pg.pg()) +
                       " membership epoch regressed " +
                       std::to_string(it->second) + " -> " +
                       std::to_string(epoch));
    }
    it->second = std::max(it->second, epoch);
  });
}

// -- 8: repair jobs require suspicion evidence ------------------------------

void InvariantAuditor::CheckRepairQuietDecision() {
  if (monitor_ == nullptr || planner_ == nullptr) return;
  const SimTime now = cluster_->sim().Now();
  std::set<SegmentId> active;
  for (const auto& [old_id, job] : planner_->jobs()) {
    active.insert(old_id);
    if (monitor_->last_suspected_at(old_id) == 0) {
      AddViolation("repair-quiet-decision",
                   "repair job against segment " + std::to_string(old_id) +
                       " which the health monitor never suspected");
      continue;
    }
    // Once the planner has committed to an outcome (commit after full
    // hydration, or revert) the decision point has passed; only
    // still-revertible states are held to the freshness requirement.
    if (job.state == RepairPlanner::JobState::kCommitInstall ||
        job.state == RepairPlanner::JobState::kRevertInstall) {
      repair_unsuspect_since_.erase(old_id);
      continue;
    }
    // While an install RPC round is outstanding the planner cannot act
    // on new liveness evidence; the dwell clock starts once it is free.
    if (job.install_in_flight) {
      repair_unsuspect_since_.erase(old_id);
      continue;
    }
    if (monitor_->IsSuspect(old_id)) {
      repair_unsuspect_since_.erase(old_id);
      continue;
    }
    auto [it, first] = repair_unsuspect_since_.try_emplace(old_id, now);
    if (now - it->second >= kRepairRevertGrace) {
      AddViolation(
          "repair-quiet-decision",
          "repair job against segment " + std::to_string(old_id) +
              " still pending " + std::to_string(now - it->second) +
              "us after the suspect produced fresh liveness evidence, "
              "without reverting");
      it->second = now;  // re-arm instead of firing every event boundary
    }
  }
  std::erase_if(repair_unsuspect_since_,
                [&active](const auto& kv) { return !active.contains(kv.first); });
}

// -- 9: mid-hydration segments never look read-complete ---------------------

void InvariantAuditor::CheckHydratingReadExclusion() {
  // Each volume's writer only tracks its own segments, so resolve the
  // driver per segment via the segment's owning volume.
  std::map<VolumeId, engine::StorageDriver*> drivers;
  for (VolumeId volume : cluster_->metadata().VolumeIds()) {
    engine::DbInstance* writer = cluster_->writer(volume);
    if (writer == nullptr || !writer->IsOpen() ||
        writer->driver() == nullptr) {
      continue;
    }
    drivers[volume] = writer->driver();
  }
  if (drivers.empty()) return;
  cluster_->ForEachSegment([this, &drivers](storage::StorageNode* node,
                                            storage::SegmentStore* segment) {
    if (segment->hydrated()) return;
    auto it = drivers.find(segment->volume());
    if (it == drivers.end()) return;
    if (it->second->SegmentKnownHydrated(segment->id())) {
      AddViolation("hydrating-read-exclusion",
                   "segment " + std::to_string(segment->id()) + " on node " +
                       std::to_string(node->id()) +
                       " is mid-hydration but the open writer considers it "
                       "read-complete");
    }
  });
}

// -- Snapshot & report ------------------------------------------------------

std::string InvariantAuditor::SnapshotJson() const {
  std::string out = "{";
  out += "\n  \"seed\": " + std::to_string(cluster_->options().seed);
  out += ",\n  \"sim_time_us\": " + std::to_string(cluster_->sim().Now());
  out += ",\n  \"executed_events\": " +
         std::to_string(cluster_->sim().ExecutedEvents());
  out += ",\n  \"metadata_volume_epoch\": " +
         std::to_string(cluster_->metadata().volume_epoch());
  engine::DbInstance* writer = cluster_->writer();
  if (writer != nullptr) {
    out += ",\n  \"writer\": {";
    out += "\"open\": " + std::string(writer->IsOpen() ? "true" : "false");
    out += ", \"fenced\": " +
           std::string(writer->IsFenced() ? "true" : "false");
    out += ", \"volume_epoch\": " + std::to_string(writer->volume_epoch());
    out += ", \"vcl\": " + std::to_string(writer->vcl());
    out += ", \"vdl\": " + std::to_string(writer->vdl());
    out += ", \"max_acked_scn\": " + std::to_string(writer->max_acked_scn());
    out += ", \"pgmrpl\": " + std::to_string(writer->ComputePgmrpl());
    out += ", \"pgcl\": [";
    bool first = true;
    for (const auto& pg : cluster_->geometry().pgs()) {
      if (!first) out += ", ";
      first = false;
      out += std::to_string(writer->pgcl(pg.pg()));
    }
    out += "]}";
  }
  out += ",\n  \"segments\": [";
  bool first_seg = true;
  // ForEachSegment is non-const; the lambda only reads. const_cast is
  // confined to this serialization helper.
  auto* self = const_cast<InvariantAuditor*>(this);
  self->cluster_->ForEachSegment([&out, &first_seg](
                                     storage::StorageNode* node,
                                     storage::SegmentStore* segment) {
    if (!first_seg) out += ",";
    first_seg = false;
    out += "\n    {\"id\": " + std::to_string(segment->id());
    out += ", \"volume\": " + std::to_string(segment->volume());
    out += ", \"pg\": " + std::to_string(segment->pg());
    out += ", \"node\": " + std::to_string(node->id());
    out += ", \"volume_epoch\": " + std::to_string(segment->volume_epoch());
    out += ", \"membership_epoch\": " +
           std::to_string(segment->config().epoch());
    out += ", \"scl\": " + std::to_string(segment->scl());
    out += ", \"pgmrpl\": " + std::to_string(segment->pgmrpl());
    out += ", \"hydrated\": " +
           std::string(segment->hydrated() ? "true" : "false");
    out += ", \"truncations\": " +
           std::to_string(segment->hot_log().truncations().size());
    out += "}";
  });
  out += "\n  ]";
  out += ",\n  \"replicas\": [";
  bool first_rep = true;
  for (const auto& replica : cluster_->replicas()) {
    if (!first_rep) out += ",";
    first_rep = false;
    out += "\n    {\"vdl\": " + std::to_string(replica->vdl());
    out += ", \"min_read_point\": " + std::to_string(replica->MinReadPoint());
    out += "}";
  }
  out += "\n  ]";
  out += ",\n  \"checks_run\": " + std::to_string(checks_run_);
  out += ",\n  \"violations\": " + std::to_string(violations_.size());
  out += "\n}\n";
  return out;
}

std::string InvariantAuditor::Report() const {
  if (violations_.empty()) return "";
  std::string out = std::to_string(violations_.size()) +
                    " invariant violation(s); seed " +
                    std::to_string(cluster_->options().seed) + "\n";
  for (const auto& v : violations_) {
    out += "  [" + v.invariant + "] " + v.detail + " at t=" +
           std::to_string(v.at) + " event=" + std::to_string(v.event_index) +
           "\n";
  }
  out += "first-violation snapshot:\n" + violations_.front().snapshot;
  return out;
}

}  // namespace aurora::core
