#include "src/core/repair_planner.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/core/cluster.h"
#include "src/core/health_monitor.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/segment_store.h"
#include "src/storage/storage_node.h"

namespace aurora::core {

namespace {
/// Cadence of the decision loop.
constexpr SimDuration kTickInterval = 20 * kMillisecond;
/// Concurrent repair bounds (jobs, not epochs).
constexpr size_t kMaxConcurrentPerAz = 1;
constexpr size_t kMaxConcurrentTotal = 2;
/// How long kProbing waits for a read quorum of SCLs before re-probing.
constexpr SimDuration kProbeWindow = 500 * kMillisecond;
/// Re-kick a hydration pull that made no visible progress for this long.
constexpr SimDuration kHydrationRetry = 500 * kMillisecond;
/// Per-attempt timeout for one config install quorum.
constexpr SimDuration kInstallTimeout = 2 * kSecond;
/// A job stuck in the dual-quorum state this long rolls back.
constexpr SimDuration kJobDeadline = 20 * kSecond;
}  // namespace

RepairPlanner::RepairPlanner(AuroraCluster* cluster, HealthMonitor* monitor)
    : cluster_(cluster), monitor_(monitor) {}

void RepairPlanner::Start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  Tick();
}

void RepairPlanner::Stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;
}

size_t RepairPlanner::JobsInAz(AzId az) const {
  size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.az == az) ++n;
  }
  return n;
}

bool RepairPlanner::PgHasJob(VolumeId volume, ProtectionGroupId pg) const {
  for (const auto& [id, job] : jobs_) {
    if (job.volume == volume && job.pg == pg) return true;
  }
  return false;
}

void RepairPlanner::Tick() {
  if (!running_) return;
  AdvanceJobs();
  StartNewJobs();
  const uint64_t gen = generation_;
  cluster_->sim().Schedule(
      kTickInterval,
      [this, gen]() {
        if (gen != generation_) return;
        Tick();
      },
      "repair.tick");
}

void RepairPlanner::StartNewJobs() {
  const SimTime now = cluster_->sim().Now();
  // Suspects compete for bounded job slots, so rank candidates before
  // claiming any: most-degraded PG first (a group one failure from losing
  // write quorum outranks a single slow segment, whichever tenant it
  // belongs to), ties broken by (volume, pg, suspect id) so the order is
  // a pure function of cluster state.
  struct Candidate {
    SegmentId suspect = kInvalidSegment;
    const quorum::PgConfig* config = nullptr;
    VolumeId volume = 0;
    size_t degraded = 0;
  };
  std::vector<Candidate> candidates;
  for (SegmentId suspect : monitor_->Suspects()) {
    if (jobs_.contains(suspect)) continue;
    Candidate c;
    c.suspect = suspect;
    c.config = cluster_->FindConfigForSegment(suspect, &c.volume);
    if (c.config == nullptr) continue;  // already replaced / departed
    for (const auto& member : c.config->AllMembers()) {
      if (monitor_->IsSuspect(member.id)) ++c.degraded;
    }
    candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.degraded != b.degraded) return a.degraded > b.degraded;
              if (a.volume != b.volume) return a.volume < b.volume;
              if (a.config->pg() != b.config->pg()) {
                return a.config->pg() < b.config->pg();
              }
              return a.suspect < b.suspect;
            });
  for (const Candidate& c : candidates) {
    if (jobs_.size() >= kMaxConcurrentTotal) break;
    const quorum::PgConfig* config = c.config;
    // One job per PG: the slot machinery supports nested changes, but
    // bounded eager repair keeps blast radius small, and a reverted or
    // committed job frees the group within a couple of ticks anyway.
    if (config->HasPendingChange() || PgHasJob(c.volume, config->pg())) {
      continue;
    }
    const quorum::SegmentInfo* info = config->FindSegment(c.suspect);
    if (info == nullptr) continue;
    if (JobsInAz(info->az) >= kMaxConcurrentPerAz) continue;
    RepairJob job;
    job.old_segment = c.suspect;
    job.volume = c.volume;
    job.pg = config->pg();
    job.az = info->az;
    job.state = JobState::kProbing;
    job.decided_at = now;
    job.suspected_since = monitor_->suspected_since(c.suspect);
    job.probe_deadline = now + kProbeWindow;
    job.deadline = now + kJobDeadline;
    cluster_->ProbeSclsAsync(*config, job.probes);
    jobs_.emplace(c.suspect, std::move(job));
    ++stats_.jobs_started;
  }
}

void RepairPlanner::AdvanceJobs() {
  const SimTime now = cluster_->sim().Now();
  std::vector<SegmentId> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) ids.push_back(id);
  for (SegmentId id : ids) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    RepairJob& job = it->second;
    switch (job.state) {
      case JobState::kProbing: {
        if (!monitor_->IsSuspect(id)) {
          // The suspect acked again before membership was touched.
          ++stats_.aborted_before_begin;
          jobs_.erase(it);
          break;
        }
        // A suspect that left its group gets no more probes and runs
        // into the deadline below.
        const quorum::PgConfig* config = cluster_->FindConfigForSegment(id);
        const auto quorum = config != nullptr
                                ? engine::ReadQuorumScl(*config, *job.probes)
                                : std::nullopt;
        if (quorum.has_value()) {
          job.target_scl = quorum->scl;
          BeginChange(job);
          break;
        }
        if (now >= job.deadline) {
          // Never reached a read quorum of hydrated SCLs — the group is
          // unreachable; give up and let suspicion re-trigger later.
          ++stats_.failed;
          jobs_.erase(it);
          break;
        }
        if (now >= job.probe_deadline && config != nullptr) {
          job.probe_deadline = now + kProbeWindow;
          cluster_->ProbeSclsAsync(*config, job.probes);
        }
        break;
      }
      case JobState::kBeginInstall: {
        if (job.install_in_flight) break;
        if (!monitor_->IsSuspect(id)) {
          // Figure-5 roll-back from the first step: the suspect acked
          // again while the begin install was still propagating. The
          // revert config is strictly newer than anything the begin
          // leaked, so installing it reconverges every node either way.
          auto revert = job.pending_config->RevertReplace(id);
          if (revert.ok()) {
            job.state = JobState::kRevertInstall;
            job.exit_config = std::move(*revert);
            StartInstall(job);
            break;
          }
        }
        if (now >= job.deadline) {
          // The epoch+1 install never reached quorum (some nodes may
          // still hold it). Roll back: the revert config is strictly
          // newer than anything the begin attempt leaked, so installing
          // it reconverges every node and the metadata service.
          auto revert = job.pending_config->RevertReplace(id);
          if (!revert.ok()) break;
          job.state = JobState::kRevertInstall;
          job.exit_config = std::move(*revert);
          StartInstall(job);
          break;
        }
        StartInstall(job);
        break;
      }
      case JobState::kHydrating: {
        if (job.install_in_flight) break;
        if (!monitor_->IsSuspect(id) || now >= job.deadline) {
          // Figure-5 roll-back: the suspect acked again (or placement is
          // going nowhere and a fresh job should pick a new host).
          auto revert = job.pending_config->RevertReplace(id);
          if (!revert.ok()) break;
          job.state = JobState::kRevertInstall;
          job.exit_config = std::move(*revert);
          StartInstall(job);
          break;
        }
        storage::StorageNode* host = cluster_->node(job.host_node);
        storage::SegmentStore* store =
            host != nullptr ? host->FindSegment(job.new_segment) : nullptr;
        if (store == nullptr) break;
        if (store->hydrated()) {
          // Figure-5 roll-forward.
          auto commit = job.pending_config->CommitReplace(id);
          if (!commit.ok()) break;
          job.state = JobState::kCommitInstall;
          job.exit_config = std::move(*commit);
          StartInstall(job);
          break;
        }
        if (now - job.last_pull_at >= kHydrationRetry &&
            cluster_->network().IsUp(job.host_node)) {
          job.last_pull_at = now;
          host->StartHydrationPull(job.new_segment);
        }
        break;
      }
      case JobState::kCommitInstall:
      case JobState::kRevertInstall: {
        if (job.install_in_flight) break;
        // Exit installs retry until they land: once a transition has
        // leaked to any node, only driving the config forward keeps the
        // fleet and the metadata service convergent.
        StartInstall(job);
        break;
      }
    }
  }
}

void RepairPlanner::BeginChange(RepairJob& job) {
  const quorum::PgConfig* config =
      cluster_->FindConfigForSegment(job.old_segment);
  if (config == nullptr || config->HasPendingChange()) {
    ++stats_.aborted_before_begin;
    jobs_.erase(job.old_segment);
    return;
  }
  auto fresh = cluster_->PlaceFreshMembers(*config, job.az, 1);
  if (!fresh.ok() || !cluster_->network().IsUp(fresh->front().node)) {
    // No live host in the AZ right now; keep probing and retry.
    job.probe_deadline = cluster_->sim().Now() + kProbeWindow;
    return;
  }
  auto next = config->BeginReplace(job.old_segment, fresh->front());
  if (!next.ok()) {
    ++stats_.failed;
    jobs_.erase(job.old_segment);
    return;
  }
  cluster_->StageFreshMembers(*config, *next, job.target_scl);
  job.new_segment = fresh->front().id;
  job.host_node = fresh->front().node;
  job.pending_config = std::move(*next);
  job.state = JobState::kBeginInstall;
  AURORA_DEBUG << "repair: begin replace seg=" << job.old_segment
               << " with seg=" << job.new_segment << " on node "
               << job.host_node << " (pg " << job.pg << ")";
  StartInstall(job);
}

void RepairPlanner::StartInstall(RepairJob& job) {
  const quorum::PgConfig* base = nullptr;
  const quorum::PgConfig* target = nullptr;
  if (job.state == JobState::kBeginInstall) {
    base = cluster_->FindConfigForSegment(job.old_segment);
    target = &*job.pending_config;
    // If metadata already shows the pending config (install landed but the
    // quorum callback lost a race with a timeout), skip straight ahead.
    if (base != nullptr && base->epoch() >= target->epoch()) {
      job.state = JobState::kHydrating;
      return;
    }
    if (base == nullptr) return;
  } else {
    base = &*job.pending_config;
    target = &*job.exit_config;
  }
  job.install_in_flight = true;
  ++job.install_attempts;
  const uint64_t gen = generation_;
  const SegmentId old_id = job.old_segment;
  cluster_->InstallPgConfigAsync(
      *base, *target,
      [this, gen, old_id](Status st) {
        if (gen != generation_) return;
        auto it = jobs_.find(old_id);
        if (it == jobs_.end()) return;
        RepairJob& job = it->second;
        job.install_in_flight = false;
        if (!st.ok()) return;  // next tick retries the same install
        switch (job.state) {
          case JobState::kBeginInstall: {
            job.state = JobState::kHydrating;
            ++stats_.begun;
            if (auto* host = cluster_->node(job.host_node)) {
              job.last_pull_at = cluster_->sim().Now();
              host->StartHydrationPull(job.new_segment);
            }
            break;
          }
          case JobState::kCommitInstall:
            FinishCommit(job);
            break;
          case JobState::kRevertInstall:
            FinishRevert(job);
            break;
          default:
            break;
        }
      },
      kInstallTimeout);
}

void RepairPlanner::FinishCommit(RepairJob& job) {
  cluster_->DropDepartedMembers(*job.pending_config, *job.exit_config);
  const SimTime now = cluster_->sim().Now();
  const SimTime base =
      job.suspected_since > 0 ? job.suspected_since : job.decided_at;
  mttr_.Record(now - base);
  ++stats_.committed;
  AURORA_DEBUG << "repair: committed seg=" << job.old_segment << " -> seg="
               << job.new_segment << " mttr_us=" << (now - base);
  jobs_.erase(job.old_segment);
}

void RepairPlanner::FinishRevert(RepairJob& job) {
  cluster_->DropDepartedMembers(*job.pending_config, *job.exit_config);
  ++stats_.reverted;
  AURORA_DEBUG << "repair: reverted seg=" << job.old_segment
               << " (replacement seg=" << job.new_segment << " dropped)";
  jobs_.erase(job.old_segment);
}

}  // namespace aurora::core
