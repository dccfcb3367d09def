// Property-based tests (parameterized over seeds) for the invariants
// enumerated in DESIGN.md §5: LSN/consistency-point monotonicity, SCL
// chain semantics under arbitrary delivery orders, gossip convergence,
// quorum overlap under random full/tail shapes, commit safety across
// repeated crashes, and snapshot isolation under a concurrent workload.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/cluster.h"
#include "src/log/hot_log.h"
#include "src/quorum/membership.h"

namespace aurora {
namespace {

// ---------------------------------------------------------------------- //
// SCL correctness: for ANY delivery permutation and ANY subset of lost
// records, SCL equals the longest gap-free chain prefix.

class SclPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SclPropertyTest, SclEqualsContiguousPrefixUnderRandomDelivery) {
  Rng rng(GetParam());
  const Lsn n = 60;
  std::vector<log::SealedRecord> records;
  for (Lsn l = 1; l <= n; ++l) {
    log::RedoRecord rec;
    rec.lsn = l;
    rec.prev_lsn_segment = l - 1;
    rec.pg = 0;
    rec.block = 1;
    records.push_back(log::Seal(std::move(rec)));
  }
  // Drop a random subset, shuffle the rest.
  std::vector<log::SealedRecord> delivered;
  std::set<Lsn> kept;
  for (const auto& rec : records) {
    if (rng.Bernoulli(0.8)) {
      delivered.push_back(rec);
      kept.insert(rec->lsn);
    }
  }
  for (size_t i = delivered.size(); i > 1; --i) {
    std::swap(delivered[i - 1], delivered[rng.NextBounded(i)]);
  }
  log::SegmentHotLog log;
  Lsn prev_scl = kInvalidLsn;
  for (const auto& rec : delivered) {
    ASSERT_TRUE(log.Append(rec).ok());
    ASSERT_GE(log.scl(), prev_scl) << "SCL must be monotone";
    prev_scl = log.scl();
  }
  // Model: longest prefix 1..k fully contained in kept.
  Lsn expected = 0;
  while (kept.contains(expected + 1)) expected++;
  EXPECT_EQ(log.scl(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SclPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------- //
// Gossip convergence: segments receiving random disjoint subsets converge
// to identical SCLs after pairwise gossip rounds.

class GossipPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GossipPropertyTest, PairwiseGossipConverges) {
  Rng rng(GetParam());
  const Lsn n = 40;
  const int num_segments = 6;
  std::vector<log::SegmentHotLog> logs(num_segments);
  for (Lsn l = 1; l <= n; ++l) {
    log::RedoRecord rec;
    rec.lsn = l;
    rec.prev_lsn_segment = l - 1;
    rec.pg = 0;
    rec.block = 1;
    const log::SealedRecord sealed = log::Seal(std::move(rec));
    // Each record lands on a random 4/6 write quorum.
    std::set<int> targets;
    while (targets.size() < 4) {
      targets.insert(static_cast<int>(rng.NextBounded(num_segments)));
    }
    for (int t : targets) ASSERT_TRUE(logs[t].Append(sealed).ok());
  }
  // Gossip rounds: each segment pulls from a random peer.
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < num_segments; ++i) {
      const int peer = static_cast<int>(rng.NextBounded(num_segments));
      if (peer == i) continue;
      for (const auto& rec : logs[peer].ChainAfter(logs[i].scl(), 100)) {
        ASSERT_TRUE(logs[i].Append(rec).ok());
      }
    }
  }
  for (const auto& log : logs) {
    EXPECT_EQ(log.scl(), n) << "all segments converge to the full chain";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------- //
// Quorum overlap for randomized full/tail layouts and AZ placements.

class FullTailPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FullTailPropertyTest, RandomLayoutsPreserveQuorumRules) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<quorum::SegmentInfo> members;
    int fulls = 0;
    for (SegmentId id = 0; id < 6; ++id) {
      quorum::SegmentInfo info;
      info.id = id;
      info.node = 100 + id;
      info.az = static_cast<AzId>(rng.NextBounded(3));
      info.is_full = rng.Bernoulli(0.5);
      if (info.is_full) fulls++;
      members.push_back(info);
    }
    if (fulls == 0) members[0].is_full = true;
    auto config = quorum::PgConfig::Create(0, quorum::QuorumModel::kFullTail,
                                           members);
    EXPECT_TRUE(quorum::QuorumSet::AlwaysOverlaps(config.ReadSet(),
                                                  config.WriteSet()))
        << config.ToString();
    EXPECT_TRUE(quorum::QuorumSet::AlwaysOverlaps(config.WriteSet(),
                                                  config.WriteSet()))
        << config.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullTailPropertyTest,
                         ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------- //
// Commit safety across repeated crashes: every acknowledged commit
// survives every subsequent crash/recovery; consistency points and the
// volume epoch never regress.

class CrashPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashPropertyTest, AckedCommitsSurviveRepeatedCrashes) {
  core::AuroraOptions options;
  options.seed = GetParam();
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());

  std::map<std::string, std::string> acked;  // ground truth
  Rng rng(GetParam() * 31 + 7);
  VolumeEpoch last_epoch = cluster.writer()->volume_epoch();
  int key_counter = 0;
  for (int round = 0; round < 4; ++round) {
    // A burst of committed writes.
    const int burst = 5 + static_cast<int>(rng.NextBounded(10));
    for (int i = 0; i < burst; ++i) {
      std::string key = "k" + std::to_string(key_counter % 20);
      std::string value =
          "r" + std::to_string(round) + "-" + std::to_string(key_counter);
      key_counter++;
      ASSERT_TRUE(cluster.PutBlocking(key, value).ok());
      acked[key] = value;
    }
    // Some in-flight, never-committed work right before the crash.
    const TxnId loser = cluster.writer()->Begin();
    cluster.writer()->Put(loser, "loser-key", "round" + std::to_string(round),
                          [](Status) {});
    cluster.RunFor(rng.NextBounded(2) == 0 ? 0 : 200);

    cluster.CrashWriter();
    cluster.RunFor(10 * kMillisecond);
    ASSERT_TRUE(cluster.RecoverWriterBlocking().ok()) << "round " << round;
    ASSERT_GT(cluster.writer()->volume_epoch(), last_epoch)
        << "volume epoch must strictly advance per recovery";
    last_epoch = cluster.writer()->volume_epoch();

    for (const auto& [key, value] : acked) {
      auto v = cluster.GetBlocking(key);
      ASSERT_TRUE(v.ok()) << "round " << round << " lost " << key << ": "
                          << v.status().ToString();
      ASSERT_EQ(*v, value) << "round " << round;
    }
    // The loser transaction's write must not be visible.
    auto loser_read = cluster.GetBlocking("loser-key");
    ASSERT_TRUE(loser_read.status().IsNotFound())
        << "uncommitted write visible after recovery";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------- //
// Consistency-point monotonicity under a live workload with node churn.

class MonotonicityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityPropertyTest, PointsNeverRegressUnderChurn) {
  core::AuroraOptions options;
  options.seed = GetParam();
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 3;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  Rng rng(GetParam());

  Lsn max_vcl = 0, max_vdl = 0;
  auto check = [&]() {
    ASSERT_GE(cluster.writer()->vcl(), max_vcl);
    ASSERT_GE(cluster.writer()->vdl(), max_vdl);
    ASSERT_LE(cluster.writer()->vdl(), cluster.writer()->vcl());
    max_vcl = cluster.writer()->vcl();
    max_vdl = cluster.writer()->vdl();
  };
  auto ids = cluster.StorageNodeIds();
  for (int step = 0; step < 60; ++step) {
    ASSERT_TRUE(
        cluster.PutBlocking("key" + std::to_string(step % 10), "v").ok());
    check();
    if (step % 10 == 3) {
      const NodeId victim = ids[rng.NextBounded(ids.size())];
      cluster.network().Crash(victim);
    }
    if (step % 10 == 7) {
      for (NodeId id : ids) cluster.network().Restart(id);
      cluster.RunFor(50 * kMillisecond);
    }
    check();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------- //
// Snapshot isolation: a reader's view is stable while concurrent writers
// commit around it.

class SnapshotPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotPropertyTest, RepeatableReadsWithinTransaction) {
  core::AuroraOptions options;
  options.seed = GetParam();
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("shared", "v0").ok());

  auto* writer = cluster.writer();
  const TxnId reader = writer->Begin();
  // First read inside the transaction pins its snapshot.
  std::string first_read;
  bool done = false;
  writer->Get(reader, "shared", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    first_read = *r;
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  EXPECT_EQ(first_read, "v0");

  // Other transactions overwrite and commit repeatedly.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("shared", "v" + std::to_string(i)).ok());
  }
  // The reader still sees its snapshot.
  done = false;
  writer->Get(reader, "shared", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, "v0") << "snapshot isolation violated";
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  ASSERT_TRUE(cluster.CommitBlocking(reader).ok());
  // A fresh reader sees the latest committed value.
  EXPECT_EQ(*cluster.GetBlocking("shared"), "v5");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPropertyTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace aurora
