// Self-healing control plane: health monitoring, autonomous Figure-5
// repair, degraded-mode commit parking, and hydration read exclusion.
//
// Covers the four behaviors the sustained chaos campaign relies on, each
// in isolation so a campaign failure localizes quickly:
//  1. The health monitor suspects a crashed member from probe timeouts and
//     clears the suspicion when the node returns (in-band ack evidence and
//     adaptive timeouts are exercised implicitly by the live traffic).
//  2. The repair planner drives a Figure-5 replacement end-to-end without
//     any test choreography — and fencing holds at the COMMIT exit: a
//     writer still holding the pre-change membership epoch cannot
//     assemble a write quorum afterwards.
//  3. The planner takes the REVERT exit when the suspect comes back
//     mid-hydration, and fencing holds there too (the revert mints a
//     fresh epoch; it never reinstates the old one).
//  4. Degraded mode: losing write quorum parks commits with bounded
//     memory (put backpressure), keeps reads available, and drains every
//     parked commit in SCN order once the quorum heals.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/health_monitor.h"
#include "src/core/invariant_auditor.h"
#include "src/core/repair_planner.h"
#include "src/storage/messages.h"

namespace aurora {
namespace {

core::AuroraOptions SmallVolume(uint64_t seed) {
  core::AuroraOptions options;
  options.seed = seed;
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;
  // Three nodes per AZ so the planner always has a replacement host.
  options.storage_nodes_per_az = 3;
  return options;
}

// Sends an empty (epoch-check-only) WriteRequest to every member of the
// PG's current config carrying `membership_epoch`, and returns the set of
// members that acked OK. Empty record batches exercise exactly the
// fencing path without perturbing any log state.
quorum::SegmentSet ProbeWriteQuorum(core::AuroraCluster& cluster,
                                    MembershipEpoch membership_epoch) {
  const auto& pg = cluster.geometry().pgs().front();
  auto acked = std::make_shared<quorum::SegmentSet>();
  for (const auto& member : pg.AllMembers()) {
    storage::StorageNode* node = cluster.NodeForSegment(member.id);
    if (node == nullptr) continue;
    storage::WriteRequest request;
    request.segment = member.id;
    request.epochs = EpochVector{cluster.metadata().volume_epoch(),
                                 membership_epoch};
    const SegmentId id = member.id;
    node->HandleWrite(request, [acked, id](const storage::WriteAck& ack) {
      if (ack.status.ok()) acked->insert(id);
    });
  }
  cluster.RunFor(100 * kMillisecond);  // drain the disk-ack callbacks
  return *acked;
}

TEST(SelfHealing, MonitorSuspectsCrashedNodeAndClearsOnReturn) {
  core::AuroraCluster cluster(SmallVolume(9001));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  core::HealthMonitor monitor(&cluster);
  monitor.Start();

  cluster.RunFor(500 * kMillisecond);
  EXPECT_TRUE(monitor.Suspects().empty());
  EXPECT_GT(monitor.probes_sent(), 0u);

  const auto member = cluster.geometry().pgs().front().AllMembers().front();
  cluster.network().Crash(member.node);
  ASSERT_TRUE(cluster.RunUntil(
      [&]() { return monitor.IsSuspect(member.id); }, 5 * kSecond));
  EXPECT_GT(monitor.suspicions_declared(), 0u);
  EXPECT_GT(monitor.suspected_since(member.id), 0);

  cluster.network().Restart(member.node);
  ASSERT_TRUE(cluster.RunUntil(
      [&]() { return !monitor.IsSuspect(member.id); }, 5 * kSecond));
  // The sticky evidence marker survives recovery (the auditor keys off it).
  EXPECT_GT(monitor.last_suspected_at(member.id), 0);
  monitor.Stop();
}

TEST(SelfHealing, PlannerRepairsCrashedSegmentAndCommitFences) {
  core::AuroraCluster cluster(SmallVolume(9002));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("k" + std::to_string(i),
                                    "v" + std::to_string(i)).ok());
  }

  core::HealthMonitor monitor(&cluster);
  core::RepairPlanner planner(&cluster, &monitor);
  core::InvariantAuditor auditor(&cluster);
  auditor.Attach(/*every_n_events=*/16);
  auditor.ObserveControlPlane(&monitor, &planner);
  monitor.Start();
  planner.Start();

  const auto& pg = cluster.geometry().pgs().front();
  const MembershipEpoch pre_change_epoch = pg.epoch();
  const auto victim = pg.AllMembers().front();
  cluster.network().Crash(victim.node);

  ASSERT_TRUE(cluster.RunUntil(
      [&]() { return planner.stats().committed >= 1; }, 30 * kSecond))
      << "planner never committed a repair";
  EXPECT_EQ(planner.mttr().count(), planner.stats().committed);
  EXPECT_GT(planner.mttr().max(), 0);

  // The volume re-converges: six hydrated members on live nodes, the
  // victim segment gone from the config.
  ASSERT_TRUE(cluster.RunUntil(
      [&]() {
        const auto& cfg = cluster.geometry().pgs().front();
        if (cfg.HasPendingChange()) return false;
        for (const auto& m : cfg.AllMembers()) {
          if (m.id == victim.id) return false;
          if (!cluster.network().IsUp(m.node)) return false;
          auto* node = cluster.NodeForSegment(m.id);
          auto* store = node ? node->FindSegment(m.id) : nullptr;
          if (store == nullptr || !store->hydrated()) return false;
        }
        return true;
      },
      30 * kSecond));
  const MembershipEpoch post_epoch = cluster.geometry().pgs().front().epoch();
  EXPECT_GE(post_epoch, pre_change_epoch + 2);  // begin + commit

  // Figure-5 COMMIT exit fencing: the pre-change membership epoch can no
  // longer assemble a write quorum...
  const auto stale_acks = ProbeWriteQuorum(cluster, pre_change_epoch);
  EXPECT_FALSE(
      cluster.geometry().pgs().front().WriteSet().SatisfiedBy(stale_acks))
      << stale_acks.size() << " members still accept the pre-change epoch";
  // ...while the current epoch can (the probe fails on fencing, not
  // liveness).
  const auto fresh_acks = ProbeWriteQuorum(cluster, post_epoch);
  EXPECT_TRUE(
      cluster.geometry().pgs().front().WriteSet().SatisfiedBy(fresh_acks));

  // Data written before the failure survives the autonomous repair.
  for (int i = 0; i < 40; ++i) {
    auto value = cluster.GetBlocking("k" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, "v" + std::to_string(i));
  }

  auditor.CheckNow();
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  auditor.Detach();
  planner.Stop();
  monitor.Stop();
}

TEST(SelfHealing, PlannerRevertsWhenSuspectReturnsAndRevertFences) {
  core::AuroraCluster cluster(SmallVolume(9003));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("r" + std::to_string(i), "v").ok());
  }

  core::HealthMonitor monitor(&cluster);
  core::RepairPlanner planner(&cluster, &monitor);
  core::InvariantAuditor auditor(&cluster);
  auditor.Attach(/*every_n_events=*/16);
  auditor.ObserveControlPlane(&monitor, &planner);
  monitor.Start();
  planner.Start();

  const auto& pg = cluster.geometry().pgs().front();
  const MembershipEpoch pre_change_epoch = pg.epoch();
  const auto victim = pg.AllMembers().front();
  cluster.network().Crash(victim.node);

  // Wait for the planner to pass the point of no return for BeginChange:
  // the dual-quorum config is installed and the replacement is hydrating.
  ASSERT_TRUE(cluster.RunUntil(
      [&]() {
        auto it = planner.jobs().find(victim.id);
        return it != planner.jobs().end() &&
               it->second.state == core::RepairPlanner::JobState::kHydrating;
      },
      30 * kSecond))
      << "planner never reached kHydrating";
  const NodeId host = planner.jobs().at(victim.id).host_node;
  ASSERT_NE(host, kInvalidNode);

  // Freeze hydration (crash the replacement host), then bring the suspect
  // back: the only legal exit left is RevertChange.
  cluster.network().Crash(host);
  cluster.network().Restart(victim.node);
  ASSERT_TRUE(cluster.RunUntil(
      [&]() { return planner.stats().reverted >= 1; }, 30 * kSecond))
      << "planner never reverted";
  EXPECT_EQ(planner.stats().committed, 0u);
  cluster.network().Restart(host);

  // After the revert the original membership is back — at a NEW epoch.
  ASSERT_TRUE(cluster.RunUntil(
      [&]() {
        const auto& cfg = cluster.geometry().pgs().front();
        return !cfg.HasPendingChange() && monitor.Suspects().empty() &&
               planner.ActiveCount() == 0;
      },
      30 * kSecond));
  const auto& cfg = cluster.geometry().pgs().front();
  bool victim_back = false;
  for (const auto& m : cfg.AllMembers()) victim_back |= (m.id == victim.id);
  EXPECT_TRUE(victim_back);
  const MembershipEpoch post_epoch = cfg.epoch();
  EXPECT_GE(post_epoch, pre_change_epoch + 2);  // begin + revert

  // Figure-5 REVERT exit fencing: reverting restores the membership but
  // NEVER the epoch — a writer still at the pre-change epoch stays boxed
  // out even though the member set looks identical again.
  const auto stale_acks = ProbeWriteQuorum(cluster, pre_change_epoch);
  EXPECT_FALSE(cfg.WriteSet().SatisfiedBy(stale_acks))
      << stale_acks.size() << " members still accept the pre-change epoch";
  const auto fresh_acks = ProbeWriteQuorum(cluster, post_epoch);
  EXPECT_TRUE(cluster.geometry().pgs().front().WriteSet().SatisfiedBy(
      fresh_acks));

  auditor.CheckNow();
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  auditor.Detach();
  planner.Stop();
  monitor.Stop();
}

TEST(SelfHealing, AckObserverOutlivesDestroyedMonitor) {
  // Regression: the DbInstance persists the monitor's ack observer and
  // re-applies it to every rebuilt driver, so the lambda can fire after
  // the monitor is gone. Destroying the monitor WITHOUT Stop() and then
  // driving acked writes must be a no-op, not a use-after-free (asan
  // config catches the dangling capture).
  core::AuroraCluster cluster(SmallVolume(9007));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  {
    core::HealthMonitor monitor(&cluster);
    monitor.Start();
    cluster.RunFor(200 * kMillisecond);  // a sweep installs the observer
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("a" + std::to_string(i), "v").ok());
  }
}

TEST(SelfHealing, SclProbeQuorumRequiresDistinctResponders) {
  // Regression: re-probe rounds must not let the SAME hydrated member
  // satisfy the SCL probe quorum by replying repeatedly. With only two
  // distinct members reachable, the planner has no read quorum to compute
  // a safe hydration target from, and must stay in kProbing — beginning
  // the change would install a replacement whose hydration target can sit
  // below the durable point.
  core::AuroraCluster cluster(SmallVolume(9006));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("q" + std::to_string(i), "v").ok());
  }

  core::HealthMonitor monitor(&cluster);
  core::RepairPlanner planner(&cluster, &monitor);
  monitor.Start();
  planner.Start();

  // Leave only two member-hosting nodes up: every probe round yields the
  // same two hydrated responders.
  const auto members = cluster.geometry().pgs().front().AllMembers();
  ASSERT_EQ(members.size(), 6u);
  for (int i = 0; i < 4; ++i) cluster.network().Crash(members[i].node);

  // Long enough for many re-probe windows (probe_window=500ms): the buggy
  // accumulator crossed the quorum gate on the second round.
  cluster.RunFor(3 * kSecond);
  ASSERT_GE(planner.stats().jobs_started, 1u) << "planner never reacted";
  EXPECT_EQ(planner.stats().begun, 0u)
      << "change begun without a read quorum of distinct SCL responders";
  for (const auto& [id, job] : planner.jobs()) {
    EXPECT_EQ(job.state, core::RepairPlanner::JobState::kProbing)
        << "job for seg=" << id << " left kProbing";
    EXPECT_LT(job.probes->size(), 3u);
  }

  // Restore all but one crashed member: three-plus distinct responders
  // are reachable again and the write quorum is back, so the gate opens
  // and the remaining suspect gets repaired.
  for (int i = 1; i < 4; ++i) cluster.network().Restart(members[i].node);
  ASSERT_TRUE(cluster.RunUntil(
      [&]() { return planner.stats().begun >= 1; }, 30 * kSecond))
      << "planner never began once a probe quorum was reachable";

  planner.Stop();
  monitor.Stop();
}

TEST(SelfHealing, DegradedModeParksCommitsBoundedAndDrainsInScnOrder) {
  core::AuroraOptions options;
  options.seed = 9004;
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;
  options.db.driver.max_parked_records = 24;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("base", "v0").ok());

  // Stage values in open transactions while the quorum is healthy...
  constexpr int kParked = 12;
  std::vector<TxnId> txns;
  for (int i = 0; i < kParked; ++i) {
    const TxnId txn = cluster.writer()->Begin();
    auto put_ok = std::make_shared<bool>(false);
    cluster.writer()->Put(txn, "p" + std::to_string(i), "v",
                          [put_ok](Status st) { *put_ok = st.ok(); });
    ASSERT_TRUE(cluster.RunUntil([&]() { return *put_ok; }, 5 * kSecond));
    txns.push_back(txn);
  }

  // ...then take down half the PG: Vw=4 becomes unreachable, Vr=3 remains.
  const auto members = cluster.geometry().pgs().front().AllMembers();
  ASSERT_EQ(members.size(), 6u);
  for (int i = 0; i < 3; ++i) cluster.network().Crash(members[i].node);

  // Commits issued now park: their SCN records cannot reach write quorum,
  // so the commit queue holds them without blocking anything.
  std::vector<int> ack_order;
  std::vector<Status> ack_status(kParked, Status::OK());
  for (int i = 0; i < kParked; ++i) {
    cluster.writer()->Commit(txns[i], [&ack_order, &ack_status, i](Status st) {
      ack_order.push_back(i);
      ack_status[i] = st;
    });
  }
  cluster.RunFor(600 * kMillisecond);
  EXPECT_TRUE(ack_order.empty()) << "commits acked without write quorum";
  EXPECT_EQ(cluster.writer()->CommitQueueDepth(), static_cast<size_t>(kParked));

  // The driver has noticed the stall...
  ASSERT_NE(cluster.writer()->driver(), nullptr);
  auto* driver = cluster.writer()->driver();
  EXPECT_GE(driver->DegradedPgCount(), 1u);
  EXPECT_GE(driver->stats().degraded_entries, 1u);

  // ...and bounds parked memory: once the retained-record budget fills,
  // new writes fast-fail instead of queueing unboundedly. Reads stay
  // available at Vr=3 throughout.
  int rejected = 0;
  for (int i = 0; i < 64 && rejected == 0; ++i) {
    const TxnId txn = cluster.writer()->Begin();
    auto done = std::make_shared<int>(0);
    auto status = std::make_shared<Status>(Status::OK());
    cluster.writer()->Put(txn, "x" + std::to_string(i), "v",
                          [done, status](Status st) {
                            *done = 1;
                            *status = std::move(st);
                          });
    cluster.RunFor(20 * kMillisecond);
    if (*done == 1 && status->code() == StatusCode::kUnavailable) ++rejected;
    cluster.writer()->Rollback(txn, [](Status) {});
    cluster.RunFor(5 * kMillisecond);
  }
  EXPECT_GE(rejected, 1) << "degraded backpressure never engaged";
  EXPECT_FALSE(driver->AcceptingWrites());
  // The gate refuses user Puts; txn-control records (commit markers,
  // rollbacks for cleanup) intentionally bypass it so sessions can
  // terminate, so the bound is budget + O(in-flight transactions).
  EXPECT_LE(driver->ParkedRecords(),
            options.db.driver.max_parked_records + 2 * kParked)
      << "parked memory not bounded";
  auto read = cluster.GetBlocking("base");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "v0");

  // Heal the quorum: every parked commit drains, acked in SCN order
  // (commit i was assigned its SCN at Commit() call time, so ack order
  // must equal issue order).
  for (int i = 0; i < 3; ++i) cluster.network().Restart(members[i].node);
  ASSERT_TRUE(cluster.RunUntil(
      [&]() {
        return ack_order.size() == static_cast<size_t>(kParked) &&
               cluster.writer()->CommitQueueDepth() == 0;
      },
      20 * kSecond))
      << "parked commits did not drain (acked " << ack_order.size() << "/"
      << kParked << ")";
  for (int i = 0; i < kParked; ++i) {
    EXPECT_TRUE(ack_status[i].ok()) << "commit " << i << ": "
                                    << ack_status[i].ToString();
    EXPECT_EQ(ack_order[i], i) << "SCN order broken at drain position " << i;
  }
  EXPECT_EQ(driver->DegradedPgCount(), 0u);
  EXPECT_TRUE(driver->AcceptingWrites());

  core::InvariantAuditor auditor(&cluster);
  auditor.CheckNow();
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
}

TEST(SelfHealing, MidHydrationSegmentExcludedFromReads) {
  core::AuroraCluster cluster(SmallVolume(9005));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("h" + std::to_string(i), "v").ok());
  }

  // Freeze hydration before it can start: partition every storage<->storage
  // link so the replacement's pull watchdog spins against dead air. The
  // writer reaches every node directly, so writes and the membership
  // install are unaffected; only peer transfer (hydration, gossip) stops.
  const auto storage_ids = cluster.StorageNodeIds();
  for (size_t a = 0; a < storage_ids.size(); ++a) {
    for (size_t b = a + 1; b < storage_ids.size(); ++b) {
      cluster.network().Partition(storage_ids[a], storage_ids[b], true);
    }
  }

  const auto victim = cluster.geometry().pgs().front().AllMembers().front();
  auto begin = cluster.BeginReplaceBlocking(victim.id);
  ASSERT_TRUE(begin.ok()) << begin.status().ToString();
  const SegmentId replacement = begin->new_segment;

  storage::StorageNode* host = cluster.NodeForSegment(replacement);
  ASSERT_NE(host, nullptr);
  storage::SegmentStore* store = host->FindSegment(replacement);
  ASSERT_NE(store, nullptr);
  ASSERT_FALSE(store->hydrated()) << "replacement hydrated before the test "
                                     "could observe the mid-hydration state";

  // The storage node is the authoritative gate: a mid-hydration segment
  // refuses page reads outright...
  storage::ReadPageRequest request;
  request.segment = replacement;
  request.epochs = EpochVector{cluster.metadata().volume_epoch(),
                               cluster.geometry().pgs().front().epoch()};
  request.block = 0;
  request.read_lsn = cluster.writer()->vdl();
  auto rejected = std::make_shared<Status>(Status::OK());
  host->HandleReadPage(request,
                       [rejected](const storage::ReadPageResponse& response) {
                         *rejected = response.status;
                       });
  cluster.RunFor(50 * kMillisecond);
  EXPECT_EQ(rejected->code(), StatusCode::kUnavailable)
      << rejected->ToString();

  // ...and the writer's driver never routes to it nor counts it toward
  // read-quorum completeness (hedged reads go elsewhere).
  EXPECT_FALSE(cluster.writer()->driver()->SegmentKnownHydrated(replacement));
  ASSERT_TRUE(cluster.PutBlocking("during", "v").ok());
  EXPECT_FALSE(cluster.writer()->driver()->SegmentKnownHydrated(replacement))
      << "a mid-hydration ack must not mark the channel read-eligible";
  auto value = cluster.GetBlocking("h0");
  ASSERT_TRUE(value.ok()) << value.status().ToString();

  core::InvariantAuditor auditor(&cluster);
  auditor.CheckNow();
  EXPECT_TRUE(auditor.ok()) << auditor.Report();

  // Once the partitions heal, hydration completes, the change commits,
  // and the channel becomes read-eligible via the next hydrated ack.
  for (size_t a = 0; a < storage_ids.size(); ++a) {
    for (size_t b = a + 1; b < storage_ids.size(); ++b) {
      cluster.network().Partition(storage_ids[a], storage_ids[b], false);
    }
  }
  ASSERT_TRUE(cluster.RunUntil([&]() { return store->hydrated(); },
                               30 * kSecond));
  ASSERT_TRUE(cluster.CommitReplaceBlocking(victim.id).ok());
  ASSERT_TRUE(cluster.PutBlocking("after", "v").ok());
  EXPECT_TRUE(cluster.writer()->driver()->SegmentKnownHydrated(replacement));
  auditor.CheckNow();
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
}

}  // namespace
}  // namespace aurora
