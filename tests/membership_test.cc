// Membership-change integration tests (§4.1, Figure 5): two-step
// reversible transitions, epochs, hydration, non-blocking I/O, and the
// double-failure case.

#include <gtest/gtest.h>

#include <optional>

#include "src/core/cluster.h"
#include "src/storage/messages.h"

namespace aurora {
namespace {

core::AuroraOptions Options() {
  core::AuroraOptions options;
  options.seed = 23;
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 3;  // room to place replacements
  return options;
}

TEST(Membership, ReplaceFailedSegmentEndToEnd) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("m" + std::to_string(i), "v").ok());
  }
  // Fail the node hosting segment 5, then replace the segment.
  auto* host = cluster.NodeForSegment(5);
  ASSERT_NE(host, nullptr);
  cluster.network().Crash(host->id());

  const MembershipEpoch epoch_before = cluster.geometry().Pg(0).epoch();
  auto report = cluster.ReplaceSegmentBlocking(5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->begin_epoch, epoch_before + 1);
  EXPECT_EQ(report->final_epoch, epoch_before + 2) << "two-step transition";

  const auto& pg = cluster.geometry().Pg(0);
  EXPECT_FALSE(pg.ContainsSegment(5));
  EXPECT_TRUE(pg.ContainsSegment(report->new_segment));
  EXPECT_FALSE(pg.HasPendingChange());

  // All data still readable; new writes work.
  for (int i = 0; i < 40; ++i) {
    auto v = cluster.GetBlocking("m" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
  }
  ASSERT_TRUE(cluster.PutBlocking("post-change", "ok").ok());
}

TEST(Membership, WritesProceedDuringChange) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("seed", "1").ok());

  auto* host = cluster.NodeForSegment(3);
  cluster.network().Crash(host->id());
  auto report = cluster.BeginReplaceBlocking(3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(cluster.geometry().Pg(0).HasPendingChange());

  // "Membership changes do not block either reads or writes" (§4.1):
  // commit latency during the dual-quorum phase stays bounded.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("dq" + std::to_string(i), "v").ok()) << i;
  }
  ASSERT_TRUE(cluster.CommitReplaceBlocking(3).ok());
  for (int i = 0; i < 20; ++i) {
    auto v = cluster.GetBlocking("dq" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
  }
}

TEST(Membership, RevertWhenSuspectComesBack) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("r" + std::to_string(i), "v").ok());
  }
  auto* host = cluster.NodeForSegment(2);
  cluster.network().Crash(host->id());
  auto report = cluster.BeginReplaceBlocking(2);
  ASSERT_TRUE(report.ok());
  const SegmentId new_segment = report->new_segment;

  // F comes back: revert to the original membership (Figure 5, epoch 2 ->
  // back to ABCDEF at epoch 3).
  cluster.network().Restart(host->id());
  cluster.RunFor(50 * kMillisecond);
  ASSERT_TRUE(cluster.RevertReplaceBlocking(2).ok());

  const auto& pg = cluster.geometry().Pg(0);
  EXPECT_TRUE(pg.ContainsSegment(2));
  EXPECT_FALSE(pg.ContainsSegment(new_segment));
  EXPECT_FALSE(pg.HasPendingChange());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.GetBlocking("r" + std::to_string(i)).ok()) << i;
  }
  ASSERT_TRUE(cluster.PutBlocking("after-revert", "ok").ok());
}

TEST(Membership, DoubleFailureDuringChange) {
  core::AuroraOptions options = Options();
  options.storage_nodes_per_az = 4;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("d" + std::to_string(i), "v").ok());
  }
  // Fail F (segment 5), begin replacing with G; then fail E (segment 4)
  // mid-change and replace it with H (§4.1's quadruple-quorum state).
  cluster.network().Crash(cluster.NodeForSegment(5)->id());
  auto report_g = cluster.BeginReplaceBlocking(5);
  ASSERT_TRUE(report_g.ok()) << report_g.status().ToString();

  cluster.network().Crash(cluster.NodeForSegment(4)->id());
  auto report_h = cluster.BeginReplaceBlocking(4);
  ASSERT_TRUE(report_h.ok()) << report_h.status().ToString();

  // Writing to the four stable members still meets quorum: I/O proceeds.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("dd" + std::to_string(i), "v").ok()) << i;
  }
  ASSERT_TRUE(cluster.CommitReplaceBlocking(5).ok());
  ASSERT_TRUE(cluster.CommitReplaceBlocking(4).ok());
  EXPECT_FALSE(cluster.geometry().Pg(0).HasPendingChange());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.GetBlocking("d" + std::to_string(i)).ok());
    ASSERT_TRUE(cluster.GetBlocking("dd" + std::to_string(i)).ok());
  }
}

TEST(Membership, NestedCommitWaitsForItsOwnReplacement) {
  // Figure 5's double failure: F (segment 5) and then E (segment 4) are
  // replaced at once. Committing E's change must wait for E's own
  // replacement, not for G in F's slot, or it commits a member that has
  // not hydrated ("we do not discard any durable state until back to a
  // fully repaired quorum", §4.1).
  core::AuroraOptions options = Options();
  options.storage_nodes_per_az = 4;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("n" + std::to_string(i), "v").ok());
  }
  cluster.network().Crash(cluster.NodeForSegment(5)->id());
  ASSERT_TRUE(cluster.BeginReplaceBlocking(5).ok());
  cluster.network().Crash(cluster.NodeForSegment(4)->id());
  auto h = cluster.BeginReplaceBlocking(4);
  ASSERT_TRUE(h.ok()) << h.status().ToString();

  ASSERT_TRUE(cluster.CommitReplaceBlocking(4).ok());
  const storage::SegmentStore* store =
      cluster.NodeForSegment(h->new_segment)->FindSegment(h->new_segment);
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->hydrated()) << "committed an un-hydrated replacement";
  const quorum::PgConfig& pg = cluster.geometry().Pg(0);
  EXPECT_FALSE(pg.ContainsSegment(4));
  EXPECT_TRUE(pg.ContainsSegment(5)) << "F's change is still pending";
  EXPECT_TRUE(pg.HasPendingChange());
}

TEST(Membership, InstallAcksCrossTheReturnWire) {
  // A config install is a request/reply per member over the simulated
  // wire: with no other traffic, a commit delivers exactly one
  // MembershipUpdateRequest and one MembershipUpdateResponse to and from
  // each member of the committed config.
  core::AuroraOptions options = Options();
  options.storage_node.background_enabled = false;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("w" + std::to_string(i), "v").ok());
  }
  auto report = cluster.BeginReplaceBlocking(5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const storage::SegmentStore* fresh =
      cluster.NodeForSegment(report->new_segment)
          ->FindSegment(report->new_segment);
  ASSERT_TRUE(cluster.RunUntil([&]() { return fresh->hydrated(); }));
  cluster.CrashWriter();
  cluster.RunFor(kSecond);

  const sim::NetworkStats before = cluster.network().stats();
  ASSERT_TRUE(cluster.CommitReplaceBlocking(5).ok());
  cluster.RunFor(kSecond);  // the acks past the write quorum land too
  const sim::NetworkStats after = cluster.network().stats();
  const uint64_t members = cluster.geometry().Pg(0).AllMembers().size();
  ASSERT_EQ(members, 6u);
  EXPECT_EQ(after.messages_delivered - before.messages_delivered,
            2 * members);
  EXPECT_EQ(after.bytes_delivered - before.bytes_delivered,
            members * (storage::MembershipUpdateRequest{}.SerializedSize() +
                       storage::MembershipUpdateResponse{}.SerializedSize()));
}

TEST(Membership, StaleEpochRequestsRejected) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("k", "v").ok());

  // Install a membership change directly; then hand-craft a write with
  // the OLD membership epoch and verify the segment rejects it.
  auto* host = cluster.NodeForSegment(1);
  auto* segment = host->FindSegment(1);
  const MembershipEpoch old_epoch = segment->config().epoch();

  auto report = cluster.ReplaceSegmentBlocking(0);  // bump epochs
  ASSERT_TRUE(report.ok());
  ASSERT_GT(segment->config().epoch(), old_epoch);

  EpochVector stale{cluster.writer()->volume_epoch(), old_epoch};
  EXPECT_TRUE(segment->CheckEpochs(stale).IsStaleEpoch());
  // "Updates of stale state are simply... one additional request past the
  // one rejected": the current epoch succeeds.
  EpochVector fresh{cluster.writer()->volume_epoch(),
                    segment->config().epoch()};
  EXPECT_TRUE(segment->CheckEpochs(fresh).ok());
}

TEST(Membership, AzFailureQuorumSurvives) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("az" + std::to_string(i), "v").ok());
  }
  // Fail a whole AZ: 2 of 6 segments gone; 4/6 writes and reads continue
  // (Figure 1's right side).
  cluster.network().FailAz(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("during" + std::to_string(i), "v").ok())
        << i;
    ASSERT_TRUE(cluster.GetBlocking("az" + std::to_string(i)).ok()) << i;
  }
  cluster.network().RestoreAz(2);
  cluster.RunFor(500 * kMillisecond);  // gossip refills the returned AZ
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.GetBlocking("during" + std::to_string(i)).ok());
  }
}

TEST(Membership, ManualReplaceWithWriterDownSucceeds) {
  // A manual replacement probes and installs from the metadata node, as
  // the repair planner does, so it needs no writer.
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("w" + std::to_string(i), "v").ok());
  }
  const MembershipEpoch epoch_before = cluster.geometry().Pg(0).epoch();

  cluster.CrashWriter();
  auto report = cluster.ReplaceSegmentBlocking(5);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->final_epoch, epoch_before + 2);
  EXPECT_FALSE(cluster.geometry().Pg(0).ContainsSegment(5));
  EXPECT_TRUE(cluster.geometry().Pg(0).ContainsSegment(report->new_segment));

  // The recovered writer reads everything back through the new member.
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    auto got = cluster.GetBlocking("w" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "v");
  }
}

// The epoch+1 dual config a repair would install for `suspect`: its
// replacement is placed (but not created) on a free node in its AZ.
quorum::PgConfig RepairConfig(core::AuroraCluster& cluster,
                              const quorum::PgConfig& base,
                              SegmentId suspect) {
  quorum::SegmentInfo fresh = *base.FindSegment(suspect);
  fresh.id = 1000;
  for (const auto& node : cluster.storage_nodes()) {
    bool member = false;
    for (const auto& m : base.AllMembers()) member |= m.node == node->id();
    if (node->az() == fresh.az && !member) fresh.node = node->id();
  }
  auto next = base.BeginReplace(suspect, fresh);
  EXPECT_TRUE(next.ok());
  return *next;
}

TEST(Membership, InstallDoesNotTakeAnotherConfigAtItsEpochAsAck) {
  // Two changes of one group mint different configs at the same epoch.
  // The nodes keep the first; the second install must not count their
  // StaleEpoch replies as acks and record a config they never accepted.
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  const quorum::PgConfig base = cluster.geometry().Pg(0);
  auto manual = cluster.BeginReplaceBlocking(5);
  ASSERT_TRUE(manual.ok()) << manual.status().ToString();
  const quorum::PgConfig installed = cluster.geometry().Pg(0);
  ASSERT_EQ(installed.epoch(), base.epoch() + 1);

  const quorum::PgConfig other = RepairConfig(cluster, base, 4);
  ASSERT_EQ(other.epoch(), installed.epoch());
  std::optional<Status> result;
  cluster.InstallPgConfigAsync(base, other,
                               [&](Status st) { result = std::move(st); });
  cluster.RunFor(3 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->IsQuorumUnavailable()) << result->ToString();
  EXPECT_EQ(cluster.geometry().Pg(0), installed);
}

TEST(Membership, ManualReplaceRacingARepairInstallBacksOff) {
  // A repair-planner install (InstallPgConfigAsync from the metadata
  // node) is in flight when a manual replacement of another member of
  // the same group starts. Both mint an epoch+1 config; at most one may
  // succeed, and the config the metadata records must be the one a write
  // quorum of the group holds. With no head start the manual probe ends
  // first and its install finds the repair's config at the nodes; with
  // 400 us the repair reaches its quorum during the probe, and the manual
  // change backs off before creating its segment.
  for (const SimDuration head_start : {SimDuration{0}, 400 * kMicrosecond}) {
    SCOPED_TRACE(head_start);
    core::AuroraCluster cluster(Options());
    ASSERT_TRUE(cluster.StartBlocking().ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(cluster.PutBlocking("r" + std::to_string(i), "v").ok());
    }
    const quorum::PgConfig base = cluster.geometry().Pg(0);
    const quorum::PgConfig repair = RepairConfig(cluster, base, 4);
    std::optional<Status> repaired;
    cluster.InstallPgConfigAsync(
        base, repair, [&](Status st) { repaired = std::move(st); });
    cluster.RunFor(head_start);
    ASSERT_FALSE(repaired.has_value());
    auto manual = cluster.BeginReplaceBlocking(5);
    ASSERT_TRUE(repaired.has_value());
    EXPECT_FALSE(manual.ok() && repaired->ok()) << "two configs at one epoch";
    if (head_start > 0) {
      EXPECT_TRUE(manual.status().IsAborted()) << manual.status().ToString();
    }

    const quorum::PgConfig& recorded = cluster.geometry().Pg(0);
    EXPECT_EQ(recorded.epoch(), base.epoch() + 1);
    quorum::SegmentSet holders;
    for (const auto& member : base.AllMembers()) {
      const auto* store =
          cluster.NodeForSegment(member.id)->FindSegment(member.id);
      if (store != nullptr && store->config() == recorded) {
        holders.insert(member.id);
      }
    }
    EXPECT_TRUE(base.WriteSet().SatisfiedBy(holders))
        << "metadata records " << recorded.ToString()
        << " but no write quorum holds it";
  }
}

}  // namespace
}  // namespace aurora
