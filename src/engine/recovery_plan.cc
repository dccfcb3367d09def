#include "src/engine/recovery_plan.h"

#include <algorithm>

namespace aurora::engine {

std::optional<QuorumScl> ReadQuorumScl(const quorum::PgConfig& config,
                                       const SclProbeReplies& replies) {
  std::vector<SegmentId> hydrated;
  QuorumScl best;
  for (const auto& [segment, reply] : replies) {
    if (!reply.hydrated) continue;
    hydrated.push_back(segment);
    if (reply.scl >= best.scl || best.segment == kInvalidSegment) {
      best = QuorumScl{reply.scl, segment};
    }
  }
  if (!config.ReadSet().SatisfiedBy(hydrated)) return std::nullopt;
  return best;
}

std::optional<RecoveryPlan> PlanRecovery(
    const quorum::VolumeGeometry& geometry,
    const std::map<ProtectionGroupId, SclProbeReplies>& probes) {
  static const SclProbeReplies kNoReplies;
  RecoveryPlan plan;
  bool first = true;
  for (const auto& pg : geometry.pgs()) {
    auto it = probes.find(pg.pg());
    const SclProbeReplies& replies =
        it == probes.end() ? kNoReplies : it->second;
    const std::optional<QuorumScl> pgcl = ReadQuorumScl(pg, replies);
    if (!pgcl) return std::nullopt;
    plan.pgs[pg.pg()] = *pgcl;
    if (first || pgcl->scl < plan.tail_floor) plan.tail_floor = pgcl->scl;
    first = false;
    for (const auto& [segment, reply] : replies) {
      if (!reply.hydrated) continue;
      for (const auto& range : reply.truncations) {
        plan.present.AddRange(range.start, range.end);
      }
      // The GC floor is a chain-complete prefix that was archived before
      // eviction; its records exist even though the hot log can no
      // longer list them.
      if (reply.gc_floor > 0) plan.present.AddRange(1, reply.gc_floor);
    }
  }
  if (plan.tail_floor > 0) plan.present.AddRange(1, plan.tail_floor);
  return plan;
}

RecoveryPoints FinishRecovery(const RecoveryPlan& plan,
                              const std::vector<TailReply>& tails) {
  IntervalSet present = plan.present;
  std::map<Lsn, bool> mtr_complete;
  for (const TailReply& tail : tails) {
    // A prefix GC'd between the probe and this fetch exists (archived)
    // even though the hot log can no longer list it.
    if (tail.response.gc_floor > 0) {
      present.AddRange(1, tail.response.gc_floor);
    }
    const Lsn pgcl = plan.pgs.at(tail.pg).scl;
    for (const auto& record : tail.response.records) {
      if (record.lsn > pgcl) continue;  // beyond the provable point
      present.Add(record.lsn);
      mtr_complete[record.lsn] = record.mtr_complete;
    }
  }
  RecoveryPoints points;
  points.vcl = present.Empty() ? 0 : present.ContiguousUpperBound(1);
  Lsn vdl = kInvalidLsn;
  for (const auto& [lsn, complete] : mtr_complete) {
    if (lsn <= points.vcl && complete) vdl = std::max(vdl, lsn);
  }
  if (vdl == kInvalidLsn && points.vcl > 0 && plan.tail_floor > 0) {
    // No MTR boundary in the window: deepen the scan.
    points.deeper_floor = plan.tail_floor / 2;
    return points;
  }
  points.vdl = vdl == kInvalidLsn ? points.vcl : vdl;
  points.truncation =
      log::TruncationRange{points.vdl + 1, points.vdl + kTruncationGap};
  return points;
}

bool EpochInstalled(
    const quorum::VolumeGeometry& geometry, const RecoveryPlan& plan,
    const std::map<ProtectionGroupId, quorum::SegmentSet>& acks) {
  for (const auto& pg : geometry.pgs()) {
    auto it = acks.find(pg.pg());
    if (it == acks.end() || !pg.WriteSet().SatisfiedBy(it->second) ||
        !it->second.contains(plan.pgs.at(pg.pg()).segment)) {
      return false;
    }
  }
  return true;
}

}  // namespace aurora::engine
