#include "src/core/chaos_harness.h"

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/core/health_monitor.h"
#include "src/core/repair_planner.h"
#include "src/sim/shrink.h"

namespace aurora::core {

namespace {

struct KindName {
  ChaosOpKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {ChaosOpKind::kPut, "put"},
    {ChaosOpKind::kCrashOrRestartNode, "crash_or_restart_node"},
    {ChaosOpKind::kTogglePartition, "toggle_partition"},
    {ChaosOpKind::kCorruptRecord, "corrupt_record"},
    {ChaosOpKind::kWriterCrashRecover, "writer_crash_recover"},
    {ChaosOpKind::kReplaceSegment, "replace_segment"},
    {ChaosOpKind::kAzBlip, "az_blip"},
    {ChaosOpKind::kPoisonVdlArm, "poison_vdl_arm"},
    {ChaosOpKind::kPoisonVdlFire, "poison_vdl_fire"},
    {ChaosOpKind::kFlapNode, "flap_node"},
};

const char* KindToName(ChaosOpKind kind) {
  for (const auto& [k, name] : kKindNames) {
    if (k == kind) return name;
  }
  return "unknown";
}

AuroraOptions ChaosOptions(uint64_t seed, const ChaosRunOptions& run) {
  AuroraOptions options;
  options.seed = seed;
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  // Three nodes per AZ so segment replacement always has a free host.
  options.storage_nodes_per_az = 3;
  options.storage_node = run.storage_node;
  return options;
}

// Extracts the global write sequence from a value "v<seq>".
uint64_t SeqOf(const std::string& value) {
  return std::stoull(value.substr(1));
}

/// Executes one schedule against a fresh cluster. The op implementations
/// are the chaos test's historical fault mix; every runtime choice maps a
/// pre-drawn pick onto current state (pick % size) so subsets of a
/// schedule replay without re-randomizing.
class ChaosExecutor {
 public:
  ChaosExecutor(const ChaosSchedule& schedule, const ChaosRunOptions& options)
      : schedule_(schedule),
        options_(options),
        cluster_(ChaosOptions(schedule.seed, options)) {}

  ChaosRunResult Run() {
    if (options_.record != nullptr) {
      ScheduleToTrace(schedule_, options_.record);
      cluster_.sim().StartTrace(options_.record);
    }
    if (options_.replay != nullptr) {
      cluster_.sim().BeginReplayCheck(options_.replay);
    }

    Status st = cluster_.StartBlocking();
    if (!st.ok()) {
      result_.status = st;
      return Finish();
    }
    auditor_ = std::make_unique<InvariantAuditor>(&cluster_);
    auditor_->Attach(/*every_n_events=*/1);

    if (options_.campaign) {
      // The flap dwell draws go through the injector's decision stream;
      // wire it into the trace so a captured campaign replays (and
      // shrinks) with the exact same flap rhythm.
      if (options_.record != nullptr) {
        cluster_.failures().RecordDecisionsTo(options_.record);
      }
      if (options_.replay != nullptr) {
        cluster_.failures().ReplayDecisionsFrom(options_.replay);
      }
      monitor_ = std::make_unique<HealthMonitor>(&cluster_);
      planner_ = std::make_unique<RepairPlanner>(&cluster_, monitor_.get());
      monitor_->Start();
      planner_->Start();
      auditor_->ObserveControlPlane(monitor_.get(), planner_.get());
    }

    for (const ChaosOp& op : schedule_.ops) {
      Execute(op);
      if (!result_.status.ok()) break;
      cluster_.RunFor(op.advance);
      auditor_->CheckNow();
      if (!auditor_->ok() && options_.stop_at_first_violation) break;
    }

    const bool violated = !auditor_->ok();
    std::vector<AuditViolation> campaign_violations;
    if (result_.status.ok() && !(violated && options_.stop_at_first_violation)) {
      HealEverything();
      if (writer() != nullptr && !writer()->IsOpen()) {
        st = cluster_.RecoverWriterBlocking();
        if (!st.ok()) result_.status = st;
      }
      if (result_.status.ok() && options_.campaign) {
        // A sustained campaign's pass condition: with the faults healed,
        // the control plane must bring the volume back to six healthy,
        // hydrated segments per PG on its own.
        const bool converged = cluster_.RunUntil(
            [this]() { return CampaignConverged(); }, 60 * kSecond);
        if (!converged) {
          AuditViolation v;
          v.invariant = "campaign-convergence";
          v.detail = DescribeNonConvergence();
          v.at = cluster_.sim().Now();
          v.event_index = cluster_.sim().ExecutedEvents();
          v.snapshot = auditor_->SnapshotJson();
          campaign_violations.push_back(std::move(v));
        }
      }
      if (result_.status.ok()) {
        cluster_.RunFor(2 * kSecond);  // drain gossip, scrub, retransmissions
        if (options_.check_durability && auditor_->ok()) CheckDurability();
        auditor_->CheckNow();
        // Degraded-mode contract: every commit parked while write quorum
        // was lost must have been acknowledged or aborted by now.
        if (options_.campaign && writer() != nullptr &&
            writer()->CommitQueueDepth() > 0) {
          AuditViolation v;
          v.invariant = "campaign-parked-commits";
          v.detail = std::to_string(writer()->CommitQueueDepth()) +
                     " commit(s) still parked after the post-campaign drain" +
                     " (min pending scn " +
                     std::to_string(writer()->MinPendingCommitScn()) +
                     ", vcl " + std::to_string(writer()->vcl()) + ", vdl " +
                     std::to_string(writer()->vdl()) + ")";
          v.at = cluster_.sim().Now();
          v.event_index = cluster_.sim().ExecutedEvents();
          v.snapshot = auditor_->SnapshotJson();
          campaign_violations.push_back(std::move(v));
        }
      }
    }

    if (planner_ != nullptr) {
      result_.repairs_committed = planner_->stats().committed;
      result_.repairs_reverted = planner_->stats().reverted;
      result_.repair_mttr = planner_->mttr();
      planner_->Stop();
    }
    if (monitor_ != nullptr) monitor_->Stop();

    result_.violations = auditor_->violations();
    for (auto& v : campaign_violations) {
      result_.violations.push_back(std::move(v));
    }
    auditor_->Detach();
    return Finish();
  }

 private:
  engine::DbInstance* writer() { return cluster_.writer(); }

  ChaosRunResult Finish() {
    auto& sim = cluster_.sim();
    result_.fingerprint = sim.ScheduleFingerprint();
    result_.executed_events = sim.ExecutedEvents();
    result_.end_time = sim.Now();
    for (const storage::SegmentStats& s : cluster_.FleetSegmentStats()) {
      result_.scrub_corruptions += s.scrub_corruptions_found;
      result_.gossip_filled_records += s.records_gossip_filled;
    }
    if (writer() != nullptr) {
      result_.vcl = writer()->vcl();
      result_.vdl = writer()->vdl();
    }
    if (options_.replay != nullptr) {
      result_.replay_diverged = sim.ReplayDiverged();
      result_.replay_divergence = sim.ReplayDivergence();
      sim.EndReplayCheck();
    }
    if (options_.record != nullptr) {
      sim.StopTrace();
      auto& summary = options_.record->summary;
      summary.present = true;
      summary.fingerprint = result_.fingerprint;
      summary.vcl = result_.vcl;
      summary.vdl = result_.vdl;
      summary.executed_events = result_.executed_events;
      summary.end_time = result_.end_time;
    }
    return std::move(result_);
  }

  void Execute(const ChaosOp& op) {
    switch (op.kind) {
      case ChaosOpKind::kPut:
        DoPut(op);
        break;
      case ChaosOpKind::kCrashOrRestartNode:
        DoCrashOrRestartStorageNode(op);
        break;
      case ChaosOpKind::kTogglePartition:
        DoTogglePartition(op);
        break;
      case ChaosOpKind::kCorruptRecord:
        DoCorruptRecord(op);
        break;
      case ChaosOpKind::kWriterCrashRecover:
        DoWriterCrashRecover();
        break;
      case ChaosOpKind::kReplaceSegment:
        DoReplaceSegment(op);
        break;
      case ChaosOpKind::kAzBlip:
        DoAzBlip(op);
        break;
      case ChaosOpKind::kPoisonVdlArm:
        poison_armed_ = true;
        break;
      case ChaosOpKind::kPoisonVdlFire:
        if (poison_armed_ && writer() != nullptr && writer()->IsOpen()) {
          writer()->driver()->tracker().CorruptVdlForTest(writer()->vcl() +
                                                          1000);
        }
        break;
      case ChaosOpKind::kFlapNode:
        DoFlapNode(op);
        break;
    }
  }

  void DoPut(const ChaosOp& op) {
    if (writer() == nullptr || !writer()->IsOpen()) return;
    const std::string key = "k" + std::to_string(op.pick_a % 48);
    const uint64_t seq = ++next_seq_;
    const std::string value = "v" + std::to_string(seq);
    written_[key].insert(seq);

    const TxnId txn = writer()->Begin();
    auto put_state = std::make_shared<int>(0);  // 0 pending, 1 ok, -1 fail
    writer()->Put(txn, key, value, [put_state](Status st) {
      *put_state = st.ok() ? 1 : -1;
    });
    cluster_.RunUntil([&]() { return *put_state != 0; }, 500 * kMillisecond);
    if (*put_state != 1) {
      // Timed out (quorum down) or aborted: fire-and-forget rollback so
      // the locks drain; the txn was never acknowledged.
      if (writer() != nullptr && writer()->IsOpen()) {
        writer()->Rollback(txn, [](Status) {});
      }
      return;
    }
    auto commit_state = std::make_shared<int>(0);
    // The commit callback may fire long after this op returns (e.g. once
    // a partition heals); record the ack whenever it lands.
    writer()->Commit(txn, [this, key, seq, commit_state](Status st) {
      *commit_state = st.ok() ? 1 : -1;
      if (st.ok() && seq > last_acked_[key]) last_acked_[key] = seq;
    });
    cluster_.RunUntil([&]() { return *commit_state != 0; },
                      500 * kMillisecond);
  }

  void DoCrashOrRestartStorageNode(const ChaosOp& op) {
    const auto ids = cluster_.StorageNodeIds();
    if (!crashed_.empty() && (op.pick_a & 1) != 0) {
      const NodeId id = *crashed_.begin();
      cluster_.network().Restart(id);
      crashed_.erase(id);
      return;
    }
    if (crashed_.size() >= 2) return;  // keep quorums winnable
    const NodeId id = ids[op.pick_b % ids.size()];
    if (crashed_.contains(id)) return;
    cluster_.network().Crash(id);
    crashed_.insert(id);
  }

  void DoTogglePartition(const ChaosOp& op) {
    if (writer() == nullptr) return;
    const auto ids = cluster_.StorageNodeIds();
    const NodeId node = ids[op.pick_a % ids.size()];
    const auto pair = std::make_pair(writer()->id(), node);
    const bool blocked = !partitions_.contains(pair);
    cluster_.network().Partition(pair.first, pair.second, blocked);
    if (blocked) {
      partitions_.insert(pair);
    } else {
      partitions_.erase(pair);
    }
  }

  void DoCorruptRecord(const ChaosOp& op) {
    // Corrupt one stored record on one segment; the periodic scrub will
    // drop it and gossip will re-fill it from peers (§2.1 activity 8).
    std::vector<storage::SegmentStore*> stores;
    cluster_.ForEachSegment(
        [&stores](storage::StorageNode*, storage::SegmentStore* segment) {
          stores.push_back(segment);
        });
    if (stores.empty()) return;
    storage::SegmentStore* victim = stores[op.pick_a % stores.size()];
    const auto records = victim->hot_log().ChainAfter(kInvalidLsn, 16);
    if (records.empty()) return;
    victim->CorruptRecordForTest(records[op.pick_b % records.size()]->lsn);
  }

  void DoWriterCrashRecover() {
    if (writer() == nullptr || !writer()->IsOpen()) return;
    cluster_.CrashWriter();
    cluster_.RunFor(10 * kMillisecond);
    // Recovery needs read quorums everywhere: heal the fleet first.
    HealEverything();
    const Status st = cluster_.RecoverWriterBlocking();
    if (!st.ok()) result_.status = st;
  }

  void DoReplaceSegment(const ChaosOp& op) {
    // Membership changes only from a calm fleet; racing them against
    // partitions is exercised by membership_test with tighter control.
    if (!crashed_.empty() || !partitions_.empty()) return;
    if (writer() == nullptr || !writer()->IsOpen()) return;
    const auto& pgs = cluster_.geometry().pgs();
    const auto& pg = pgs[op.pick_a % pgs.size()];
    if (pg.HasPendingChange()) return;
    const auto members = pg.AllMembers();
    const SegmentId victim = members[op.pick_b % members.size()].id;
    // May legitimately fail (e.g. hydration still catching up); invariants
    // must hold either way.
    (void)cluster_.ReplaceSegmentBlocking(victim);
  }

  void DoAzBlip(const ChaosOp& op) {
    const auto azs = cluster_.AzIds();
    const AzId az = azs[op.pick_a % azs.size()];
    cluster_.network().FailAz(az);
    cluster_.RunFor(static_cast<SimDuration>(op.pick_b) * kMillisecond);
    cluster_.network().RestoreAz(az);
    // RestoreAz restarts every node in the AZ, including ones we crashed
    // individually.
    for (auto it = crashed_.begin(); it != crashed_.end();) {
      if (cluster_.network().AzOf(*it) == az) {
        it = crashed_.erase(it);
      } else {
        ++it;
      }
    }
    // The writer lives in an AZ too; if the blip took it down, bring it
    // back through crash recovery (its ephemeral state is gone).
    if (writer() != nullptr && !writer()->IsOpen()) {
      HealEverything();
      const Status st = cluster_.RecoverWriterBlocking();
      if (!st.ok()) result_.status = st;
    }
  }

  void DoFlapNode(const ChaosOp& op) {
    const auto ids = cluster_.StorageNodeIds();
    const NodeId node = ids[op.pick_a % ids.size()];
    // A flap ends with the node UP; flapping a node we track as crashed
    // would silently resurrect it and skew the crashed_ cap.
    if (crashed_.contains(node)) return;
    const SimDuration period =
        static_cast<SimDuration>(4 + op.pick_b % 32) * kMillisecond;
    const int count = 2 + static_cast<int>((op.pick_b >> 8) % 2);
    cluster_.failures().Flap(node, period, count);
  }

  /// Campaign pass condition: writer open, no active repairs or suspects,
  /// every PG settled on six healthy, hydrated members on live nodes.
  bool CampaignConverged() {
    if (writer() == nullptr || !writer()->IsOpen()) return false;
    if (planner_ != nullptr && planner_->ActiveCount() != 0) return false;
    if (monitor_ != nullptr && !monitor_->Suspects().empty()) return false;
    for (const auto& pg : cluster_.geometry().pgs()) {
      if (pg.HasPendingChange()) return false;
      const auto members = pg.AllMembers();
      if (members.size() != 6) return false;
      for (const auto& member : members) {
        if (!cluster_.network().IsUp(member.node)) return false;
        storage::StorageNode* node = cluster_.NodeForSegment(member.id);
        storage::SegmentStore* store =
            node != nullptr ? node->FindSegment(member.id) : nullptr;
        if (store == nullptr || !store->hydrated()) return false;
      }
    }
    return true;
  }

  std::string DescribeNonConvergence() {
    std::string out = "campaign did not re-converge: ";
    if (writer() == nullptr || !writer()->IsOpen()) out += "[writer closed] ";
    if (planner_ != nullptr && planner_->ActiveCount() != 0) {
      out += "[" + std::to_string(planner_->ActiveCount()) +
             " repair job(s) still active] ";
    }
    if (monitor_ != nullptr && !monitor_->Suspects().empty()) {
      out += "[" + std::to_string(monitor_->Suspects().size()) +
             " segment(s) still suspected] ";
    }
    for (const auto& pg : cluster_.geometry().pgs()) {
      if (pg.HasPendingChange()) {
        out += "[pg " + std::to_string(pg.pg()) + " mid-change] ";
      }
      for (const auto& member : pg.AllMembers()) {
        if (!cluster_.network().IsUp(member.node)) {
          out += "[segment " + std::to_string(member.id) + " node down] ";
          continue;
        }
        storage::StorageNode* node = cluster_.NodeForSegment(member.id);
        storage::SegmentStore* store =
            node != nullptr ? node->FindSegment(member.id) : nullptr;
        if (store == nullptr) {
          out += "[segment " + std::to_string(member.id) + " missing] ";
        } else if (!store->hydrated()) {
          out += "[segment " + std::to_string(member.id) + " hydrating] ";
        }
      }
    }
    return out;
  }

  void HealEverything() {
    for (const auto& [a, b] : partitions_) {
      cluster_.network().Partition(a, b, false);
    }
    partitions_.clear();
    for (NodeId id : crashed_) cluster_.network().Restart(id);
    crashed_.clear();
  }

  // Durability contract: every key reads back at or after its last
  // acknowledged write, and with a value actually written to it.
  void CheckDurability() {
    for (const auto& [key, acked_seq] : last_acked_) {
      auto value = cluster_.GetBlocking(key);
      if (!value.ok()) {
        result_.errors.push_back("acked key " + key + " unreadable: " +
                                 value.status().ToString());
        continue;
      }
      const uint64_t seq = SeqOf(*value);
      if (!written_[key].contains(seq)) {
        result_.errors.push_back(key + " holds " + *value +
                                 ", never written to it");
      }
      if (seq < acked_seq) {
        result_.errors.push_back(key + " regressed below its last acked "
                                 "write (" + *value + " < v" +
                                 std::to_string(acked_seq) + ")");
      }
    }
  }

  const ChaosSchedule& schedule_;
  const ChaosRunOptions& options_;
  AuroraCluster cluster_;
  std::unique_ptr<InvariantAuditor> auditor_;
  std::unique_ptr<HealthMonitor> monitor_;
  std::unique_ptr<RepairPlanner> planner_;
  ChaosRunResult result_;

  uint64_t next_seq_ = 0;
  bool poison_armed_ = false;
  std::map<std::string, std::set<uint64_t>> written_;
  std::map<std::string, uint64_t> last_acked_;
  std::set<NodeId> crashed_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
};

bool HasViolation(const ChaosRunResult& result, const std::string& invariant) {
  for (const AuditViolation& v : result.violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

}  // namespace

sim::FaultOp ChaosOp::ToFaultOp() const {
  sim::FaultOp op;
  op.kind = KindToName(kind);
  op.args = {static_cast<int64_t>(pick_a), static_cast<int64_t>(pick_b)};
  op.advance_us = advance;
  return op;
}

Result<ChaosOp> ChaosOp::FromFaultOp(const sim::FaultOp& op) {
  ChaosOp out;
  bool known = false;
  for (const auto& [kind, name] : kKindNames) {
    if (op.kind == name) {
      out.kind = kind;
      known = true;
      break;
    }
  }
  if (!known) {
    return Status::NotSupported("unknown chaos op kind \"" + op.kind + "\"");
  }
  if (op.args.size() != 2) {
    return Status::Corruption("chaos op \"" + op.kind + "\" wants 2 args, has " +
                              std::to_string(op.args.size()));
  }
  out.pick_a = static_cast<uint64_t>(op.args[0]);
  out.pick_b = static_cast<uint64_t>(op.args[1]);
  out.advance = op.advance_us;
  return out;
}

ChaosSchedule GenerateChaosSchedule(uint64_t seed, int num_ops) {
  ChaosSchedule schedule;
  schedule.seed = seed;
  Rng rng(seed * 7919 + 13);
  for (int i = 0; i < num_ops; ++i) {
    ChaosOp op;
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 50) {
      op.kind = ChaosOpKind::kPut;
      op.pick_a = rng.NextBounded(48);
    } else if (dice < 62) {
      op.kind = ChaosOpKind::kCrashOrRestartNode;
      op.pick_a = rng.NextBounded(2);
      op.pick_b = rng.NextBounded(1 << 16);
    } else if (dice < 72) {
      op.kind = ChaosOpKind::kTogglePartition;
      op.pick_a = rng.NextBounded(1 << 16);
    } else if (dice < 80) {
      op.kind = ChaosOpKind::kCorruptRecord;
      op.pick_a = rng.NextBounded(1 << 16);
      op.pick_b = rng.NextBounded(1 << 16);
    } else if (dice < 88) {
      op.kind = ChaosOpKind::kWriterCrashRecover;
    } else if (dice < 94) {
      op.kind = ChaosOpKind::kReplaceSegment;
      op.pick_a = rng.NextBounded(1 << 16);
      op.pick_b = rng.NextBounded(1 << 16);
    } else {
      op.kind = ChaosOpKind::kAzBlip;
      op.pick_a = rng.NextBounded(1 << 16);
      op.pick_b = 1 + rng.NextBounded(50);  // blip duration, ms
    }
    op.advance = static_cast<SimDuration>(rng.NextBounded(20)) * kMillisecond;
    schedule.ops.push_back(op);
  }
  return schedule;
}

ChaosSchedule GenerateCampaignSchedule(uint64_t seed, int num_ops) {
  ChaosSchedule schedule;
  schedule.seed = seed;
  Rng rng(seed * 104729 + 31);
  for (int i = 0; i < num_ops; ++i) {
    ChaosOp op;
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 45) {
      op.kind = ChaosOpKind::kPut;
      op.pick_a = rng.NextBounded(48);
    } else if (dice < 60) {
      op.kind = ChaosOpKind::kCrashOrRestartNode;
      op.pick_a = rng.NextBounded(2);
      op.pick_b = rng.NextBounded(1 << 16);
    } else if (dice < 70) {
      op.kind = ChaosOpKind::kTogglePartition;
      op.pick_a = rng.NextBounded(1 << 16);
    } else if (dice < 78) {
      op.kind = ChaosOpKind::kFlapNode;
      op.pick_a = rng.NextBounded(1 << 16);
      op.pick_b = rng.NextBounded(1 << 16);
    } else if (dice < 86) {
      op.kind = ChaosOpKind::kCorruptRecord;
      op.pick_a = rng.NextBounded(1 << 16);
      op.pick_b = rng.NextBounded(1 << 16);
    } else if (dice < 92) {
      op.kind = ChaosOpKind::kWriterCrashRecover;
    } else {
      op.kind = ChaosOpKind::kAzBlip;
      op.pick_a = rng.NextBounded(1 << 16);
      op.pick_b = 1 + rng.NextBounded(50);  // blip duration, ms
    }
    // Longer inter-op windows than the plain mix: the control plane needs
    // room to suspect, begin, hydrate, and commit between punches.
    op.advance =
        static_cast<SimDuration>(5 + rng.NextBounded(35)) * kMillisecond;
    schedule.ops.push_back(op);
  }
  return schedule;
}

ChaosRunResult RunChaosSchedule(const ChaosSchedule& schedule,
                                const ChaosRunOptions& options) {
  return ChaosExecutor(schedule, options).Run();
}

void ScheduleToTrace(const ChaosSchedule& schedule, sim::Trace* trace) {
  trace->Clear();
  trace->seed = schedule.seed;
  trace->scenario = "chaos";
  trace->ops.reserve(schedule.ops.size());
  for (const ChaosOp& op : schedule.ops) trace->ops.push_back(op.ToFaultOp());
}

Result<ChaosSchedule> ScheduleFromTrace(const sim::Trace& trace) {
  ChaosSchedule schedule;
  schedule.seed = trace.seed;
  for (const sim::FaultOp& fault_op : trace.ops) {
    auto op = ChaosOp::FromFaultOp(fault_op);
    if (!op.ok()) return op.status();
    schedule.ops.push_back(*op);
  }
  return schedule;
}

Result<ChaosShrinkResult> ShrinkChaosViolation(const ChaosSchedule& schedule,
                                               const std::string& invariant,
                                               bool campaign) {
  ChaosRunOptions replay_options;
  replay_options.check_durability = false;
  replay_options.campaign = campaign;

  auto run_subset = [&](const ChaosSchedule& subset) {
    return HasViolation(RunChaosSchedule(subset, replay_options), invariant);
  };
  auto subset_of = [&](const std::vector<size_t>& kept) {
    ChaosSchedule subset;
    subset.seed = schedule.seed;
    for (size_t i : kept) subset.ops.push_back(schedule.ops[i]);
    return subset;
  };

  ChaosShrinkResult result;
  result.invariant = invariant;
  result.original_ops = schedule.ops.size();

  // The shrink is only meaningful if the input reproduces at all.
  ++result.replays;
  if (!run_subset(schedule)) {
    return Status::InvalidArgument(
        "schedule does not reproduce invariant \"" + invariant + "\"");
  }

  // Phase 1+2 (drop halves, then individual ops): ddmin to a 1-minimal
  // op subset.
  sim::ShrinkStats op_stats;
  const std::vector<size_t> kept = sim::DdMin(
      schedule.ops.size(),
      [&](const std::vector<size_t>& indices) {
        return run_subset(subset_of(indices));
      },
      &op_stats);
  result.minimized = subset_of(kept);
  result.replays += op_stats.attempts;

  // Phase 3: tighten the virtual-time window between the surviving ops.
  std::vector<int64_t> advances;
  advances.reserve(result.minimized.ops.size());
  for (const ChaosOp& op : result.minimized.ops) advances.push_back(op.advance);
  sim::ShrinkStats window_stats;
  advances = sim::TightenValues(
      advances,
      [&](const std::vector<int64_t>& candidate) {
        ChaosSchedule attempt = result.minimized;
        for (size_t i = 0; i < candidate.size(); ++i) {
          attempt.ops[i].advance = candidate[i];
        }
        return run_subset(attempt);
      },
      &window_stats);
  for (size_t i = 0; i < advances.size(); ++i) {
    result.minimized.ops[i].advance = advances[i];
  }
  result.replays += window_stats.attempts;

  result.timeline = RenderTimeline(result.minimized);
  return result;
}

std::string RenderTimeline(const ChaosSchedule& schedule) {
  std::string out = "seed " + std::to_string(schedule.seed) + ", " +
                    std::to_string(schedule.ops.size()) + " ops\n";
  SimTime elapsed = 0;
  size_t index = 0;
  for (const ChaosOp& op : schedule.ops) {
    out += "  [" + std::to_string(index++) + "] t+" +
           std::to_string(elapsed / kMillisecond) + "ms " + KindToName(op.kind);
    switch (op.kind) {
      case ChaosOpKind::kPut:
        out += " key=k" + std::to_string(op.pick_a % 48);
        break;
      case ChaosOpKind::kWriterCrashRecover:
      case ChaosOpKind::kPoisonVdlArm:
      case ChaosOpKind::kPoisonVdlFire:
        break;
      default:
        out += " pick_a=" + std::to_string(op.pick_a) +
               " pick_b=" + std::to_string(op.pick_b);
        break;
    }
    out += " advance=" + std::to_string(op.advance / kMillisecond) + "ms\n";
    elapsed += op.advance;
  }
  return out;
}

}  // namespace aurora::core
