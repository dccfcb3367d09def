// Tests for volume-level operations: multi-PG striping, volume growth
// (geometry epoch), heat-management segment moves, and the §4.1 extended-
// AZ-loss shrink to a 3/4 quorum (and expansion back to 4/6).

#include <gtest/gtest.h>

#include "src/core/cluster.h"

namespace aurora {
namespace {

core::AuroraOptions Options(uint64_t seed, size_t num_pgs = 2) {
  core::AuroraOptions options;
  options.seed = seed;
  options.num_pgs = num_pgs;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 4;
  return options;
}

TEST(VolumeOps, DataStripesAcrossProtectionGroups) {
  core::AuroraCluster cluster(Options(71));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 300; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "s%05d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, "v").ok());
  }
  // Both PGs must have received records (block allocation stripes).
  EXPECT_GT(cluster.writer()->pgcl(0), 0u);
  EXPECT_GT(cluster.writer()->pgcl(1), 0u);
  // And everything reads back.
  for (int i = 0; i < 300; i += 29) {
    char key[16];
    std::snprintf(key, sizeof(key), "s%05d", i);
    ASSERT_TRUE(cluster.GetBlocking(key).ok()) << key;
  }
}

TEST(VolumeOps, GrowVolumeAddsUsableCapacity) {
  core::AuroraCluster cluster(Options(72, /*num_pgs=*/1));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("before", "v").ok());
  const GeometryEpoch epoch_before = cluster.geometry().geometry_epoch();

  ASSERT_TRUE(cluster.GrowVolumeBlocking().ok());
  EXPECT_EQ(cluster.geometry().geometry_epoch(), epoch_before + 1);
  EXPECT_EQ(cluster.geometry().PgCount(), 2u);

  // New writes spread into the new PG (its cursor starts fresh) and all
  // data stays readable.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("g" + std::to_string(i), "v").ok()) << i;
  }
  EXPECT_GT(cluster.writer()->pgcl(1), 0u) << "new PG received writes";
  EXPECT_EQ(*cluster.GetBlocking("before"), "v");
  for (int i = 0; i < 200; i += 37) {
    ASSERT_TRUE(cluster.GetBlocking("g" + std::to_string(i)).ok());
  }
}

TEST(VolumeOps, FailedAutocommitRollsBackSoGrowthRetrySucceeds) {
  core::AuroraOptions options = Options(78, /*num_pgs=*/1);
  options.blocks_per_pg = 8;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  // Fill the one tiny PG until an autocommit write fails.
  std::string full_key;
  Status full = Status::OK();
  for (int i = 0; i < 1000 && full.ok(); ++i) {
    full_key = "k" + std::to_string(i);
    full = cluster.PutBlocking(full_key, "v");
  }
  ASSERT_FALSE(full.ok()) << "the volume never filled";
  // The failed write was rolled back: no transaction or row lock remains.
  EXPECT_EQ(cluster.writer()->txns().ActiveCount(), 0u);
  EXPECT_EQ(cluster.writer()->locks().LockCount(), 0u);

  ASSERT_TRUE(cluster.GrowVolumeBlocking(0).ok());
  const Status retry = cluster.PutBlocking(full_key, "v");
  ASSERT_TRUE(retry.ok()) << full_key << ": " << retry.ToString();
  EXPECT_EQ(cluster.writer()->txns().ActiveCount(), 0u);
  auto value = cluster.GetBlocking(full_key);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "v");
}

TEST(VolumeOps, GrowthSurvivesCrashRecovery) {
  core::AuroraCluster cluster(Options(73, 1));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.GrowVolumeBlocking().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("c" + std::to_string(i), "v").ok());
  }
  cluster.CrashWriter();
  cluster.RunFor(10 * kMillisecond);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  for (int i = 0; i < 100; i += 13) {
    ASSERT_TRUE(cluster.GetBlocking("c" + std::to_string(i)).ok()) << i;
  }
  ASSERT_TRUE(cluster.PutBlocking("post", "v").ok());
}

TEST(VolumeOps, HeatManagementMoveKeepsDataAndService) {
  core::AuroraCluster cluster(Options(74, 1));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("h" + std::to_string(i), "v").ok());
  }
  // Move a HEALTHY segment (its node stays up — heat management, not
  // repair). The live source is itself a hydration donor.
  auto* old_host = cluster.NodeForSegment(2);
  ASSERT_NE(old_host, nullptr);
  auto report = cluster.ReplaceSegmentBlocking(2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(old_host->FindSegment(2), nullptr) << "old copy dropped";
  const auto& pg = cluster.geometry().Pg(0);
  EXPECT_TRUE(pg.ContainsSegment(report->new_segment));
  EXPECT_FALSE(pg.ContainsSegment(2));
  for (int i = 0; i < 50; i += 7) {
    ASSERT_TRUE(cluster.GetBlocking("h" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.PutBlocking("after-move", "v").ok());
}

TEST(VolumeOps, ShrinkToThreeOfFourAfterExtendedAzLoss) {
  core::AuroraCluster cluster(Options(75, 1));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("z" + std::to_string(i), "v").ok());
  }
  cluster.network().FailAz(2);
  // With the AZ down, a single additional failure would block 4/6 writes.
  // Shrink to 3/4 over the survivors.
  ASSERT_TRUE(cluster.ShrinkAfterAzLossBlocking(2).ok());
  const auto& pg = cluster.geometry().Pg(0);
  EXPECT_EQ(pg.slots().size(), 4u);
  EXPECT_EQ(pg.model(), quorum::QuorumModel::kUniform34);

  // Now one MORE node can fail and writes still flow (3/4 of survivors).
  const auto members = pg.AllMembers();
  cluster.network().Crash(members[0].node);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("d" + std::to_string(i), "v").ok())
        << "3/4 quorum must tolerate one more failure";
  }
  cluster.network().Restart(members[0].node);
  for (int i = 0; i < 30; i += 5) {
    ASSERT_TRUE(cluster.GetBlocking("z" + std::to_string(i)).ok());
  }
}

TEST(VolumeOps, ExpandBackToSixAfterAzRecovers) {
  core::AuroraCluster cluster(Options(76, 1));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("e" + std::to_string(i), "v").ok());
  }
  cluster.network().FailAz(1);
  ASSERT_TRUE(cluster.ShrinkAfterAzLossBlocking(1).ok());
  ASSERT_TRUE(cluster.PutBlocking("while-shrunk", "v").ok());

  cluster.network().RestoreAz(1);
  cluster.RunFor(100 * kMillisecond);
  ASSERT_TRUE(cluster.ExpandToSixBlocking(1).ok());
  const auto& pg = cluster.geometry().Pg(0);
  EXPECT_EQ(pg.slots().size(), 6u);
  EXPECT_EQ(pg.model(), quorum::QuorumModel::kUniform46);

  // The fresh members hydrated the full history.
  for (int i = 0; i < 30; i += 4) {
    ASSERT_TRUE(cluster.GetBlocking("e" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.PutBlocking("after-expand", "v").ok());
  // AZ tolerance is back: fail a different AZ (not the writer's AZ 0).
  cluster.network().FailAz(2);
  ASSERT_TRUE(cluster.GetBlocking("after-expand").ok());
  ASSERT_TRUE(cluster.PutBlocking("during-az2-loss", "v").ok());
}

TEST(VolumeOps, ShrinkTransitionIsProvablySafe) {
  // Unit-level check of the quorum algebra for the 4/6 -> 3/4 shrink.
  std::vector<quorum::SegmentInfo> members;
  for (SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<NodeId>(100 + id),
                       static_cast<AzId>(id / 2), true});
  }
  auto config =
      quorum::PgConfig::Create(0, quorum::QuorumModel::kUniform46, members);
  auto shrunk = config.ShrinkAfterAzLoss(2);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_TRUE(quorum::TransitionIsSafe(config, *shrunk));
  EXPECT_TRUE(shrunk->WriteSet().SatisfiedBy({0, 1, 2}));
  EXPECT_FALSE(shrunk->WriteSet().SatisfiedBy({0, 1}));
  // Expand back.
  auto expanded = shrunk->ExpandToSix(
      {{10, 200, 2, true}, {11, 201, 2, true}});
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(quorum::TransitionIsSafe(*shrunk, *expanded));
  // Degenerate inputs rejected.
  EXPECT_FALSE(config.ShrinkAfterAzLoss(9).ok());
  EXPECT_FALSE(shrunk->ShrinkAfterAzLoss(0).ok()) << "would drop below 3";
}

}  // namespace
}  // namespace aurora
