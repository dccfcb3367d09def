// Crash-recovery edge cases (§2.4): truncation-range semantics against
// late writes, recovery with degraded fleets, recovery racing another
// instance (epoch arbitration, no consensus), immediate re-crash, and
// recovery with no committed work at all.

#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/core/invariant_auditor.h"

namespace aurora {
namespace {

core::AuroraOptions Options(uint64_t seed) {
  core::AuroraOptions options;
  options.seed = seed;
  options.blocks_per_pg = 1 << 16;
  return options;
}

TEST(Recovery, FreshVolumeCrashBeforeAnyUserWrite) {
  core::AuroraCluster cluster(Options(81));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  cluster.CrashWriter();
  cluster.RunFor(10 * kMillisecond);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("first", "v").ok());
  EXPECT_EQ(*cluster.GetBlocking("first"), "v");
}

TEST(Recovery, ImmediateRecrashDuringFirstRecovery) {
  core::AuroraCluster cluster(Options(82));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("k" + std::to_string(i), "v").ok());
  }
  cluster.CrashWriter();
  cluster.RunFor(5 * kMillisecond);
  // Start recovery but crash again before it can finish.
  cluster.network().Restart(cluster.writer()->id());
  bool first_done = false;
  Status first_status = Status::OK();
  cluster.writer()->Open([&](Status st) {
    first_status = std::move(st);
    first_done = true;
  });
  cluster.RunFor(20 * kMillisecond);  // recovery mid-flight
  cluster.CrashWriter();
  cluster.RunFor(10 * kMillisecond);
  // Second recovery attempt must converge regardless of the first.
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.GetBlocking("k" + std::to_string(i)).ok()) << i;
  }
  ASSERT_TRUE(cluster.PutBlocking("post", "v").ok());
}

TEST(Recovery, BestSegmentLostDuringEpochInstallStillOpens) {
  // Crash the node of the group's best segment (the highest-id hydrated
  // responder, segment 5) at each moment around the end of the probe
  // round. When it goes down after being picked, the epoch install can
  // never collect its ack, so recovery restarts after 20 rounds; the
  // restart must plan afresh around the lost node and begin its install
  // rounds from zero.
  for (int offset_ms = 45; offset_ms <= 60; ++offset_ms) {
    core::AuroraCluster cluster(Options(81));
    ASSERT_TRUE(cluster.StartBlocking().ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(cluster.PutBlocking("k" + std::to_string(i), "v").ok());
    }
    cluster.CrashWriter();
    cluster.RunFor(10 * kMillisecond);
    cluster.network().Restart(cluster.writer()->id());
    bool done = false;
    Status status = Status::OK();
    cluster.writer()->Open([&](Status st) {
      status = std::move(st);
      done = true;
    });
    cluster.RunFor(offset_ms * kMillisecond);
    cluster.network().Crash(cluster.NodeForSegment(5)->id());
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }, 10 * kSecond))
        << "recovery wedged with the node crashed at " << offset_ms << " ms";
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_LE(cluster.writer()->volume_epoch(), 4u) << offset_ms << " ms";
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(cluster.GetBlocking("k" + std::to_string(i)).ok()) << i;
    }
  }
}

TEST(Recovery, TwoInstancesRaceEpochArbitrates) {
  core::AuroraCluster cluster(Options(83));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("k" + std::to_string(i), "v").ok());
  }
  cluster.CrashWriter();
  cluster.RunFor(5 * kMillisecond);

  // Two fresh instances race to open the same volume — no coordination
  // beyond the metadata service's epoch counter and storage rejections.
  auto a = cluster.CreateDetachedInstance();
  auto b = cluster.CreateDetachedInstance();
  Status status_a = Status::Internal("pending");
  Status status_b = Status::Internal("pending");
  bool done_a = false, done_b = false;
  a->Open([&](Status st) {
    status_a = std::move(st);
    done_a = true;
  });
  b->Open([&](Status st) {
    status_b = std::move(st);
    done_b = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done_a && done_b; }));

  // Both may "open", but the one with the lower volume epoch is fenced
  // the moment it writes. Exactly one writer survives a write workload.
  int writers_alive = 0;
  for (auto* instance : {a.get(), b.get()}) {
    if (!instance->IsOpen()) continue;
    bool put_done = false;
    Status put_status = Status::OK();
    const TxnId txn = instance->Begin();
    instance->Put(txn, "race", "w" + std::to_string(instance->id()),
                  [&](Status st) {
                    put_status = std::move(st);
                    put_done = true;
                  });
    cluster.RunUntil([&]() { return put_done; }, 5 * kSecond);
    bool commit_done = false;
    Status commit_status = Status::Unavailable("not attempted");
    if (put_status.ok()) {
      instance->Commit(txn, [&](Status st) {
        commit_status = std::move(st);
        commit_done = true;
      });
      cluster.RunUntil([&]() { return commit_done || instance->IsFenced(); },
                       5 * kSecond);
    }
    cluster.RunFor(100 * kMillisecond);
    if (commit_done && commit_status.ok() && !instance->IsFenced()) {
      writers_alive++;
    }
  }
  EXPECT_EQ(writers_alive, 1) << "volume epochs must arbitrate the race";
}

TEST(Recovery, LateInFlightWritesAreAnnulled) {
  core::AuroraCluster cluster(Options(84));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("stable", "v").ok());

  // Issue a write and crash while its records may still be in flight to
  // some segments; partition two segments first so their copies arrive
  // LATE (after recovery), exercising the §2.4 requirement that completed
  // in-flight operations are ignored.
  auto* writer = cluster.writer();
  const auto members = cluster.geometry().Pg(0).AllMembers();
  cluster.network().SetNodeSlowdown(members[4].node, 500.0);
  cluster.network().SetNodeSlowdown(members[5].node, 500.0);
  const TxnId loser = writer->Begin();
  writer->Put(loser, "late", "in-flight", [](Status) {});
  cluster.RunFor(100);  // records dispatched, slow copies in flight
  cluster.CrashWriter();
  cluster.RunFor(5 * kMillisecond);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  cluster.network().SetNodeSlowdown(members[4].node, 1.0);
  cluster.network().SetNodeSlowdown(members[5].node, 1.0);
  // Let the slow deliveries land AFTER recovery installed truncation.
  cluster.RunFor(2 * kSecond);

  EXPECT_TRUE(cluster.GetBlocking("late").status().IsNotFound())
      << "annulled write must stay annulled even after late delivery";
  EXPECT_EQ(*cluster.GetBlocking("stable"), "v");
  // New writes chain cleanly above the truncation gap.
  ASSERT_TRUE(cluster.PutBlocking("late", "second-life").ok());
  EXPECT_EQ(*cluster.GetBlocking("late"), "second-life");
}

TEST(Recovery, WorksFromBareReadQuorum) {
  core::AuroraCluster cluster(Options(85));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("k" + std::to_string(i), "v").ok());
  }
  cluster.CrashWriter();
  // Take down three of six segments: exactly a read quorum (3/6) remains,
  // below the write quorum. Recovery must still compute points and then
  // wait for a write quorum to install the epoch... so restore ONE node
  // shortly after to let the install complete.
  const auto members = cluster.geometry().Pg(0).AllMembers();
  for (int i = 0; i < 3; ++i) cluster.network().Crash(members[i].node);
  cluster.RunFor(5 * kMillisecond);
  cluster.failures().RestartNodeAt(cluster.sim().Now() + 300 * kMillisecond,
                                   members[0].node);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.GetBlocking("k" + std::to_string(i)).ok()) << i;
  }
}

// §2.4 end to end, under the invariant auditor: crash the writer with an
// MTR only partially delivered (a ragged edge below the write quorum),
// then assert that recovery (a) snips the edge with a truncation range on
// every segment, (b) increments the volume epoch, and (c) leaves every
// surviving segment rejecting I/O stamped with the old epoch.
TEST(Recovery, MidMtrCrashTruncatesRaggedEdgeAndFencesOldEpoch) {
  core::AuroraCluster cluster(Options(87));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("base" + std::to_string(i), "v").ok());
  }
  const VolumeEpoch old_epoch = cluster.writer()->volume_epoch();

  core::InvariantAuditor auditor(&cluster);
  auditor.Attach(1);

  // Slow four of six members so the next MTR's records land on at most
  // two segments — durable nowhere near a write quorum.
  const auto members = cluster.geometry().Pg(0).AllMembers();
  for (size_t i = 2; i < members.size(); ++i) {
    cluster.network().SetNodeSlowdown(members[i].node, 1000.0);
  }
  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  writer->Put(txn, "ragged", "partial", [](Status) {});
  cluster.RunFor(2 * kMillisecond);  // fast copies delivered, rest in flight
  cluster.CrashWriter();
  for (size_t i = 2; i < members.size(); ++i) {
    cluster.network().SetNodeSlowdown(members[i].node, 1.0);
  }
  cluster.RunFor(5 * kMillisecond);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  const Lsn recovered_vdl = cluster.writer()->vdl();
  // Recovery returns at a write quorum; let the slower members (whose
  // links may still be draining 1000x-delayed deliveries) receive the
  // epoch + truncation install too before asserting on all six.
  cluster.RunFor(2 * kSecond);

  // (b) the volume epoch advanced exactly once.
  EXPECT_EQ(cluster.writer()->volume_epoch(), old_epoch + 1);
  EXPECT_EQ(cluster.metadata().volume_epoch(), old_epoch + 1);

  for (const auto& member : members) {
    auto* segment = cluster.NodeForSegment(member.id)->FindSegment(member.id);
    ASSERT_NE(segment, nullptr);
    // (a) every segment installed the truncation range and no segment's
    // chain extends into it: the ragged edge is snipped.
    ASSERT_FALSE(segment->hot_log().truncations().empty())
        << "segment " << member.id << " missing truncation range";
    const auto& range = segment->hot_log().truncations().back();
    EXPECT_EQ(range.start, recovered_vdl + 1);
    EXPECT_LE(segment->scl(), recovered_vdl) << "segment " << member.id;
    // (c) I/O stamped with the pre-crash volume epoch is rejected.
    const Status stale = segment->CheckEpochs(
        EpochVector{old_epoch, segment->config().epoch()});
    EXPECT_TRUE(stale.IsStaleEpoch())
        << "segment " << member.id << ": " << stale.ToString();
  }

  // The annulled write is gone and stays gone; the volume keeps working.
  EXPECT_TRUE(cluster.GetBlocking("ragged").status().IsNotFound());
  ASSERT_TRUE(cluster.PutBlocking("after", "v").ok());
  EXPECT_EQ(*cluster.GetBlocking("after"), "v");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*cluster.GetBlocking("base" + std::to_string(i)), "v");
  }
  auditor.CheckNow();
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  auditor.Detach();
}

TEST(Recovery, EpochStrictlyIncreasesAcrossRecoveries) {
  core::AuroraCluster cluster(Options(86));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  VolumeEpoch last = cluster.writer()->volume_epoch();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(cluster.PutBlocking("r" + std::to_string(round), "v").ok());
    cluster.CrashWriter();
    cluster.RunFor(5 * kMillisecond);
    ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
    EXPECT_EQ(cluster.writer()->volume_epoch(), last + 1);
    last = cluster.writer()->volume_epoch();
  }
  // Storage agrees on the final epoch at a write quorum.
  size_t at_final_epoch = 0;
  for (const auto& node : cluster.storage_nodes()) {
    for (const auto& [id, segment] : node->segments()) {
      if (segment->volume_epoch() == last) at_final_epoch++;
    }
  }
  EXPECT_GE(at_final_epoch, 4u);
}

}  // namespace
}  // namespace aurora
