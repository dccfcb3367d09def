// End-to-end smoke tests: bootstrap, write/commit/read, consistency-point
// advancement, crash recovery, and replica basics on a full cluster.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace aurora {
namespace {

core::AuroraOptions SmallOptions() {
  core::AuroraOptions options;
  options.seed = 7;
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  options.db.cache_pages = 1024;
  return options;
}

TEST(ClusterSmoke, BootstrapAndPutGet) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());

  ASSERT_TRUE(cluster.PutBlocking("alpha", "1").ok());
  ASSERT_TRUE(cluster.PutBlocking("beta", "2").ok());

  auto alpha = cluster.GetBlocking("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status().ToString();
  EXPECT_EQ(*alpha, "1");
  auto beta = cluster.GetBlocking("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(*beta, "2");

  auto missing = cluster.GetBlocking("gamma");
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(ClusterSmoke, ConsistencyPointsAdvance) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  const Lsn vcl_before = cluster.writer()->vcl();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cluster.PutBlocking("key" + std::to_string(i), "v").ok());
  }
  EXPECT_GT(cluster.writer()->vcl(), vcl_before);
  EXPECT_LE(cluster.writer()->vdl(), cluster.writer()->vcl());
  EXPECT_GT(cluster.writer()->vdl(), vcl_before);
}

TEST(ClusterSmoke, OverwriteAndDelete) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());

  ASSERT_TRUE(cluster.PutBlocking("k", "v1").ok());
  ASSERT_TRUE(cluster.PutBlocking("k", "v2").ok());
  auto v = cluster.GetBlocking("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v2");

  ASSERT_TRUE(cluster.DeleteBlocking("k").ok());
  EXPECT_TRUE(cluster.GetBlocking("k").status().IsNotFound());
}

TEST(ClusterSmoke, ManyKeysForceSplits) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  // Enough keys to force several leaf and internal splits.
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, std::to_string(i)).ok()) << i;
  }
  EXPECT_GT(cluster.writer()->btree()->splits(), 0u);
  for (int i = 0; i < n; i += 37) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    auto v = cluster.GetBlocking(key);
    ASSERT_TRUE(v.ok()) << key << ": " << v.status().ToString();
    EXPECT_EQ(*v, std::to_string(i));
  }
}

TEST(ClusterSmoke, MultiKeyTransactionCommit) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());

  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  int pending = 2;
  writer->Put(txn, "x", "10", [&](Status st) {
    ASSERT_TRUE(st.ok());
    pending--;
  });
  writer->Put(txn, "y", "20", [&](Status st) {
    ASSERT_TRUE(st.ok());
    pending--;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return pending == 0; }));
  ASSERT_TRUE(cluster.CommitBlocking(txn).ok());

  EXPECT_EQ(*cluster.GetBlocking("x"), "10");
  EXPECT_EQ(*cluster.GetBlocking("y"), "20");
}

TEST(ClusterSmoke, RollbackRestoresPreviousVersions) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());

  ASSERT_TRUE(cluster.PutBlocking("a", "old").ok());
  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  bool put_done = false;
  writer->Put(txn, "a", "new", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put_done = true;
  });
  bool put2_done = false;
  writer->Put(txn, "b", "created", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put2_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return put_done && put2_done; }));
  ASSERT_TRUE(cluster.RollbackBlocking(txn).ok());

  auto a = cluster.GetBlocking("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "old");
  EXPECT_TRUE(cluster.GetBlocking("b").status().IsNotFound());
}

TEST(ClusterSmoke, UncommittedInvisibleToOtherReaders) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("k", "committed").ok());

  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  bool put_done = false;
  writer->Put(txn, "k", "dirty", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return put_done; }));

  // Autocommit reader must not see the uncommitted value.
  auto v = cluster.GetBlocking("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "committed");

  // But the writing transaction sees its own write.
  bool got = false;
  writer->Get(txn, "k", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "dirty");
    got = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return got; }));
  ASSERT_TRUE(cluster.CommitBlocking(txn).ok());
}

TEST(ClusterSmoke, CrashRecoveryPreservesAckedCommits) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("p" + std::to_string(i), "v").ok());
  }
  const VolumeEpoch epoch_before = cluster.writer()->volume_epoch();
  cluster.CrashWriter();
  cluster.RunFor(50 * kMillisecond);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  EXPECT_GT(cluster.writer()->volume_epoch(), epoch_before);
  for (int i = 0; i < 30; ++i) {
    auto v = cluster.GetBlocking("p" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
    EXPECT_EQ(*v, "v");
  }
  // And the database accepts new work after recovery.
  ASSERT_TRUE(cluster.PutBlocking("after", "recovery").ok());
  EXPECT_EQ(*cluster.GetBlocking("after"), "recovery");
}

TEST(ClusterSmoke, ScanReturnsVisibleRows) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 20; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "s%03d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, std::to_string(i)).ok());
  }
  bool done = false;
  std::vector<std::pair<std::string, std::string>> rows;
  cluster.writer()->Scan(
      kInvalidTxn, "s000", "s999", 100,
      [&](Result<std::vector<std::pair<std::string, std::string>>> r) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        rows = std::move(*r);
        done = true;
      });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  EXPECT_EQ(rows.size(), 20u);
  EXPECT_EQ(rows.front().first, "s000");
}

// Value of one counter or gauge in a MetricsJson() dump; fails the test
// when the name is not rendered.
uint64_t MetricValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << json;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size()));
}

// Metrics are scoped to their cluster: two clusters in one process keep
// separate counts, so writes to A never show up in B's dump.
TEST(ClusterSmoke, MetricsAreScopedPerCluster) {
  core::AuroraCluster a(SmallOptions());
  core::AuroraCluster b(SmallOptions());
  ASSERT_TRUE(a.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.PutBlocking("k" + std::to_string(i), "v").ok());
  }
  // A crash-recovery cycle retires A's first driver; its records still
  // count toward A's total.
  a.CrashWriter();
  ASSERT_TRUE(a.RecoverWriterBlocking().ok());
  ASSERT_TRUE(a.PutBlocking("after", "recovery").ok());

  uint64_t a_records = 0;
  a.writer()->ForEachDriver([&](engine::StorageDriver& driver) {
    a_records += driver.stats().records_sent;
  });
  EXPECT_GT(a_records, a.writer()->driver()->stats().records_sent);
  EXPECT_EQ(MetricValue(a.MetricsJson(), "driver.fanout_records"), a_records);
  EXPECT_EQ(MetricValue(b.MetricsJson(), "driver.fanout_records"), 0u);
  EXPECT_EQ(MetricValue(b.MetricsJson(), "net.messages_sent"), 0u);
}

// The writer seals every record it hands the storage driver: each copy
// that reached a segment carries the checksum of its own header and
// payload, so a scrub of a healthy fleet drops nothing.
TEST(ClusterSmoke, WriterSealsEveryRecord) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("key" + std::to_string(i), "v").ok());
  }
  size_t checked = 0;
  for (const auto& node : cluster.storage_nodes()) {
    for (const auto& [id, segment] : node->segments()) {
      for (const auto& entry : segment->hot_log().records()) {
        const log::RedoRecord& record = *entry.record;
        EXPECT_EQ(record.crc, log::RecordBodyCrc(record)) << record.ToString();
        checked++;
      }
      EXPECT_EQ(segment->Scrub(), 0u);
      EXPECT_EQ(segment->stats().scrub_corruptions_found, 0u);
    }
  }
  EXPECT_GT(checked, 0u);
}

// The writer seals each record once and every segment keeps a handle to
// that block: the six hot logs of a PG hold one block per LSN. A corrupted
// copy is this segment's own (copy-on-write), so scrub drops it there and
// nowhere else, and the peers keep the writer's block.
TEST(ClusterSmoke, SegmentsShareOneSealedBlockPerLsn) {
  core::AuroraOptions options = SmallOptions();
  options.storage_node.background_enabled = false;  // keep the hot logs
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("key" + std::to_string(i), "v").ok());
  }
  cluster.RunFor(100 * kMillisecond);  // the last writes reach all six
  for (const auto& pg : cluster.geometry().pgs()) {
    std::vector<storage::SegmentStore*> segments;
    for (const auto& member : pg.AllMembers()) {
      segments.push_back(
          cluster.NodeForSegment(member.id)->FindSegment(member.id));
    }
    ASSERT_EQ(segments.size(), 6u);
    size_t shared = 0;
    for (const auto& entry : segments.front()->hot_log().records()) {
      for (const storage::SegmentStore* segment : segments) {
        EXPECT_EQ(segment->hot_log().Find(entry.lsn), entry.record.get())
            << "lsn " << entry.lsn;
      }
      shared++;
    }
    EXPECT_GT(shared, 0u);
  }

  const auto& members = cluster.geometry().pgs().front().AllMembers();
  std::vector<storage::SegmentStore*> segments;
  for (const auto& member : members) {
    segments.push_back(
        cluster.NodeForSegment(member.id)->FindSegment(member.id));
  }
  const Lsn lsn = segments.front()->hot_log().records().back().lsn;
  const log::RedoRecord* sealed = segments.front()->hot_log().Find(lsn);
  ASSERT_TRUE(segments[2]->CorruptRecordForTest(lsn));
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i]->Scrub(), i == 2 ? 1u : 0u) << "segment " << i;
    const log::RedoRecord* kept = segments[i]->hot_log().Find(lsn);
    if (i == 2) {
      EXPECT_EQ(kept, nullptr);
    } else {
      EXPECT_EQ(kept, sealed) << "segment " << i;
    }
  }
}

// Dynamically allocated node ids (writers, replicas, clients) never alias
// the metadata node or a storage server, however many clients register.
TEST(ClusterSmoke, ClientNodeIdsNeverCollide) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  const std::vector<NodeId> servers = cluster.StorageNodeIds();
  const std::set<NodeId> fixed(servers.begin(), servers.end());
  std::set<NodeId> seen;
  for (int i = 0; i < 120; ++i) {
    const NodeId id = cluster.RegisterClientNode(static_cast<AzId>(i % 3));
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    EXPECT_NE(id, cluster.metadata().id());
    EXPECT_FALSE(fixed.contains(id)) << "id " << id << " is a storage node";
  }
}

}  // namespace
}  // namespace aurora
