// Read-replica integration tests (§3.2–§3.4): stream application, VDL
// anchoring, commit visibility, snapshot isolation, PGMRPL feedback, and
// lossless failover.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/core/cluster.h"
#include "src/engine/btree.h"
#include "src/storage/page.h"
#include "src/storage/segment_store.h"
#include "src/storage/storage_node.h"

namespace aurora {
namespace {

core::AuroraOptions Options() {
  core::AuroraOptions options;
  options.seed = 11;
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;
  return options;
}

Result<std::string> ReplicaGet(core::AuroraCluster& cluster,
                               replica::ReadReplica* rep,
                               const std::string& key) {
  Result<std::string> result = Status::Internal("unset");
  bool done = false;
  rep->Get(key, [&](Result<std::string> r) {
    result = std::move(r);
    done = true;
  });
  if (!cluster.RunUntil([&]() { return done; })) {
    return Status::TimedOut("replica get");
  }
  return result;
}

TEST(Replica, SeesCommittedWritesAfterLag) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(50 * kMillisecond);

  ASSERT_TRUE(cluster.PutBlocking("r1", "hello").ok());
  // Allow the stream (MTRs + VDL control records) to arrive.
  cluster.RunFor(20 * kMillisecond);

  auto v = ReplicaGet(cluster, rep, "r1");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "hello");
}

TEST(Replica, VdlLagsWriterButAdvances) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(50 * kMillisecond);

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("k" + std::to_string(i), "v").ok());
  }
  cluster.RunFor(50 * kMillisecond);
  EXPECT_GT(rep->vdl(), 0u);
  EXPECT_LE(rep->vdl(), cluster.writer()->vdl());
  // After quiescing, the replica catches up fully.
  EXPECT_EQ(rep->vdl(), cluster.writer()->vdl());
}

TEST(Replica, UncommittedWritesInvisible) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("k", "old").ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(50 * kMillisecond);

  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  bool put_done = false;
  writer->Put(txn, "k", "dirty", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return put_done; }));
  cluster.RunFor(20 * kMillisecond);  // stream ships the MTR

  auto v = ReplicaGet(cluster, rep, "k");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "old") << "replica must revert uncommitted txn via undo";

  ASSERT_TRUE(cluster.CommitBlocking(txn).ok());
  cluster.RunFor(20 * kMillisecond);
  auto v2 = ReplicaGet(cluster, rep, "k");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, "dirty");
}

TEST(Replica, ColdCacheReadsFromSharedStorage) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("c" + std::to_string(i), "v").ok());
  }
  // Replica attaches AFTER the writes: its cache is empty and every read
  // must come from shared storage (§3.2: no volume copy needed).
  auto* rep = cluster.AddReplica();
  cluster.RunFor(200 * kMillisecond);
  auto v = ReplicaGet(cluster, rep, "c25");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "v");
  EXPECT_GT(rep->cache().stats().misses, 0u);
}

TEST(Replica, ScanSeesConsistentSnapshot) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "s%02d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, "x").ok());
  }
  auto* rep = cluster.AddReplica();
  cluster.RunFor(100 * kMillisecond);

  bool done = false;
  std::vector<std::pair<std::string, std::string>> rows;
  rep->Scan("s00", "s99", 100, [&](auto r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    rows = std::move(*r);
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  EXPECT_EQ(rows.size(), 10u);
}

TEST(Replica, FailoverLosesNoAckedCommit) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  cluster.AddReplica();
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("f" + std::to_string(i), "v").ok());
  }
  auto promoted = cluster.FailoverBlocking();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  // "If a commit has been marked durable and acknowledged to the client,
  // there is no data loss" (§3.2).
  for (int i = 0; i < 25; ++i) {
    auto v = cluster.GetBlocking("f" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
  }
  ASSERT_TRUE(cluster.PutBlocking("post", "failover").ok());
  EXPECT_EQ(*cluster.GetBlocking("post"), "failover");
}

TEST(Replica, OldWriterIsFencedAfterFailover) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("x", "1").ok());
  auto* old_writer = cluster.writer();
  const NodeId old_id = old_writer->id();

  auto promoted = cluster.FailoverBlocking();
  ASSERT_TRUE(promoted.ok());

  // Resurrect the old instance's process WITHOUT recovery: its requests
  // carry the stale volume epoch and storage must reject them (§2.4:
  // "boxes out old instances with previously open connections").
  cluster.network().Restart(old_id);
  // The old instance's state was cleared by OnCrash, so it cannot issue
  // anything — which is exactly the point; verify the epoch moved on.
  EXPECT_GT(cluster.writer()->volume_epoch(), 1u);
  EXPECT_FALSE(old_writer->IsOpen());
}

// §3.3: the replica consumes the redo stream asynchronously but applies
// it only in whole-MTR chunks anchored at shipped VDL points — a lagging
// replica may serve OLD data, never TORN data. Two keys always updated in
// the same transaction must never diverge in a single snapshot scan, no
// matter where within the backlog the replica's anchor currently sits.
// Once the stream drains, the replica converges and its reported lag
// gauge returns to zero.
TEST(Replica, StreamAppliesMtrAtomicallyAndLagDrains) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  ASSERT_TRUE(cluster.PutBlocking("pair0", "g0").ok());
  ASSERT_TRUE(cluster.PutBlocking("pair1", "g0").ok());
  cluster.RunFor(200 * kMillisecond);
  // Warm the replica cache so stream records actually apply to its pages.
  ASSERT_TRUE(ReplicaGet(cluster, rep, "pair0").ok());
  ASSERT_TRUE(ReplicaGet(cluster, rep, "pair1").ok());

  // Slow every delivery to the replica: the stream backlog drains while
  // generations of paired updates keep committing on the writer.
  cluster.network().SetNodeSlowdown(rep->id(), 50.0);
  auto* writer = cluster.writer();
  for (int g = 1; g <= 10; ++g) {
    const TxnId txn = writer->Begin();
    const std::string value = "g" + std::to_string(g);
    int puts_done = 0;
    for (const char* key : {"pair0", "pair1"}) {
      writer->Put(txn, key, value, [&](Status st) {
        ASSERT_TRUE(st.ok());
        puts_done++;
      });
    }
    ASSERT_TRUE(cluster.RunUntil([&]() { return puts_done == 2; }));
    ASSERT_TRUE(cluster.CommitBlocking(txn).ok());
  }

  // Scan while the backlog is mid-drain: each scan anchors once, so a
  // non-MTR-atomic application would surface as a torn pair.
  for (int round = 0; round < 8; ++round) {
    bool done = false;
    std::vector<std::pair<std::string, std::string>> rows;
    rep->Scan("pair0", "pair2", 10, [&](auto r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      rows = std::move(*r);
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].second, rows[1].second)
        << "torn pair at round " << round << ": " << rows[0].second
        << " vs " << rows[1].second;
    cluster.RunFor(20 * kMillisecond);
  }

  // Drain: the replica converges on the writer's VDL and the latest pair.
  cluster.network().SetNodeSlowdown(rep->id(), 1.0);
  cluster.RunFor(2 * kSecond);
  EXPECT_EQ(rep->vdl(), cluster.writer()->vdl());
  auto v0 = ReplicaGet(cluster, rep, "pair0");
  auto v1 = ReplicaGet(cluster, rep, "pair1");
  ASSERT_TRUE(v0.ok() && v1.ok());
  EXPECT_EQ(*v0, "g10");
  EXPECT_EQ(*v1, "g10");
  EXPECT_GT(rep->stats().mtrs_applied, 0u);
  EXPECT_GT(rep->replica_lag().count(), 0u)
      << "ship-to-apply lag must have been observed";
  // The writer-side lag (writer VDL minus the replica's last reported
  // read point) returns to 0 once the stream has drained and reports
  // have cycled.
  const auto& points = cluster.writer()->replica_read_points();
  ASSERT_TRUE(points.contains(rep->id()));
  EXPECT_EQ(points.at(rep->id()), cluster.writer()->vdl());
  EXPECT_NE(cluster.MetricsJson().find(
                "\"replica.lag_lsns." + std::to_string(rep->id()) + "\": 0"),
            std::string::npos);
}

// Writes carry the writer's floor to every segment (§3.4). A replica's
// read of a group is clamped to the last record of that group it has
// applied, which can sit below a floor the writer sent that group (the
// writer's floor is the replica's VDL, whose last record lies in another
// group). Storage must serve such a read: no record of the group lies
// between the read point and the floor.
TEST(Replica, ReadBelowWriterFloorOfTrailingGroupIsServed) {
  core::AuroraOptions options = Options();
  options.num_pgs = 2;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("k" + std::to_string(i), "v0").ok());
  }
  auto* rep = cluster.AddReplica();
  cluster.RunFor(500 * kMillisecond);
  auto* writer = cluster.writer();
  ASSERT_EQ(rep->vdl(), writer->vdl());
  ASSERT_EQ(writer->replica_read_points().at(rep->id()), rep->vdl());
  // Freeze the replica at its reported read point while the writer goes
  // on: both groups' write requests now carry that point as their floor.
  cluster.network().Partition(writer->id(), rep->id(), true);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("k" + std::to_string(i), "v1").ok());
  }
  const Lsn rep_vdl = rep->vdl();
  auto group_stats = [&](ProtectionGroupId pg) {
    storage::SegmentStats total;
    cluster.ForEachSegment([&](storage::StorageNode*,
                               storage::SegmentStore* segment) {
      if (segment->pg() != pg || !segment->is_full()) return;
      EXPECT_EQ(segment->pgmrpl(), rep_vdl) << "pg " << pg;
      total.reads_served += segment->stats().reads_served;
      total.reads_rejected += segment->stats().reads_rejected;
    });
    return total;
  };
  const storage::SegmentStats before = group_stats(1);
  // The replica's cache is cold: every key reads its leaf from storage.
  for (int i = 0; i < 200; ++i) {
    auto v = ReplicaGet(cluster, rep, "k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "k" << i << ": " << v.status().ToString();
    EXPECT_EQ(*v, "v0");
  }
  const storage::SegmentStats after = group_stats(1);
  EXPECT_GT(after.reads_served, before.reads_served)
      << "the replica must have read the trailing group";
  EXPECT_EQ(after.reads_rejected, before.reads_rejected);
}

TEST(Replica, OneWriteIsOneBufferOnEveryHolder) {
  // §2.2: the six segments, the writer's cache and a replica's cache all
  // apply the same redo. A page entry's key and value are views into the
  // payload of the record that wrote it, so one write's bytes live once in
  // memory, and the pages keep them alive after the record leaves every
  // hot log.
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("warm", "x").ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(50 * kMillisecond);
  // Cache the root leaf at the replica so the stream applies the write.
  ASSERT_TRUE(ReplicaGet(cluster, rep, "warm").ok());

  const std::string value(256, 'v');
  const std::string key = engine::DataKey("shared");
  ASSERT_TRUE(cluster.PutBlocking("shared", value).ok());

  auto leaf_of = [](engine::BufferCache& cache) -> const storage::Page* {
    const storage::Page* meta = cache.Peek(engine::kMetaBlock);
    if (meta == nullptr) return nullptr;
    auto root = engine::DecodeU64Value(meta->entries.at(engine::kMetaRootKey));
    return root.ok() ? cache.Peek(*root) : nullptr;
  };
  const storage::Page* writer_leaf = leaf_of(cluster.writer()->cache());
  ASSERT_NE(writer_leaf, nullptr);
  ASSERT_TRUE(writer_leaf->entries.contains(key));
  const char* written = writer_leaf->entries.find(key)->second.data();

  // The record that carried the write: one payload buffer on all six
  // segments, and the writer's cached value points into it.
  std::vector<storage::SegmentStore*> segments;
  for (const auto& member : cluster.geometry().pgs().front().AllMembers()) {
    storage::StorageNode* node = cluster.NodeForSegment(member.id);
    ASSERT_NE(node, nullptr);
    segments.push_back(node->FindSegment(member.id));
    ASSERT_NE(segments.back(), nullptr);
  }
  ASSERT_EQ(segments.size(), 6u);
  log::Payload payload;
  Lsn lsn = kInvalidLsn;
  BlockId block = kInvalidBlock;
  const log::RedoRecord* sealed = nullptr;
  for (const auto& entry : segments.front()->hot_log().records()) {
    const log::RedoRecord& record = *entry.record;
    if (written >= record.payload.data() &&
        written < record.payload.data() + record.payload.size()) {
      payload = record.payload;
      lsn = record.lsn;
      block = record.block;
      sealed = entry.record.get();
    }
  }
  ASSERT_NE(lsn, kInvalidLsn) << "writer cache does not alias the record";
  for (const storage::SegmentStore* segment : segments) {
    const log::RedoRecord* record = segment->hot_log().Find(lsn);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->payload.data(), payload.data());
    EXPECT_EQ(record, sealed) << "one sealed header for all six segments";
  }

  // PGMRPL rides on writes: once the replica has reported a read point
  // past the record, later writes carry it and the record folds on every
  // segment; backup and GC then evict it from every hot log.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(cluster
                      .PutBlocking("filler" + std::to_string(round) +
                                       std::to_string(i),
                                   "f")
                      .ok());
    }
    cluster.RunFor(500 * kMillisecond);
  }
  cluster.RunFor(3 * kSecond);

  // Key and value alike lie inside the record's one buffer.
  auto inside_payload = [&](const storage::Page& page) {
    auto it = page.entries.find(key);
    if (it == page.entries.end()) return false;
    auto inside = [&](std::string_view v) {
      return v.data() >= payload.data() &&
             v.data() + v.size() <= payload.data() + payload.size();
    };
    return inside(it->first) && inside(it->second);
  };
  writer_leaf = leaf_of(cluster.writer()->cache());
  ASSERT_NE(writer_leaf, nullptr);
  EXPECT_TRUE(inside_payload(*writer_leaf)) << "writer cache";
  const storage::Page* replica_leaf = leaf_of(rep->cache());
  ASSERT_NE(replica_leaf, nullptr);
  EXPECT_EQ(replica_leaf->page_lsn, writer_leaf->page_lsn);
  EXPECT_TRUE(inside_payload(*replica_leaf)) << "replica cache";
  for (storage::SegmentStore* segment : segments) {
    EXPECT_EQ(segment->hot_log().Find(lsn), nullptr) << "not evicted";
    EXPECT_TRUE(segment->OldestPendingLsn() == kInvalidLsn ||
                segment->OldestPendingLsn() > lsn)
        << "not folded";
    EXPECT_EQ(segment->VersionCount(block), 1u);
    auto page = segment->ReadPage(block, segment->scl());
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_TRUE(inside_payload(*page)) << "segment " << segment->id();
    // Equality and modeled size are about content, not where it lives.
    EXPECT_EQ(*page, *writer_leaf);
    EXPECT_EQ(page->SizeBytes(), writer_leaf->SizeBytes());
  }

  // A page rebuilt from copied bytes equals the aliasing one and models
  // the same size: key + value + 8 per entry over a 40-byte header.
  storage::Page copy;
  copy.id = writer_leaf->id;
  auto apply = [&](const storage::PageOp& op) {
    ASSERT_TRUE(storage::ApplyRedoPayload(&copy, storage::EncodePageOp(op),
                                          writer_leaf->page_lsn)
                    .ok());
  };
  storage::PageOp format;
  format.type = storage::PageOpType::kFormat;
  format.page_type = writer_leaf->type;
  format.level = writer_leaf->level;
  apply(format);
  uint64_t modeled = 40;
  for (const auto& [k, v] : writer_leaf->entries) {
    storage::PageOp insert;
    insert.key = k;
    insert.value = std::string(v);
    apply(insert);
    modeled += k.size() + v.size() + 8;
  }
  storage::PageOp links;
  links.type = storage::PageOpType::kSetLinks;
  links.next = writer_leaf->next;
  links.prev = writer_leaf->prev;
  apply(links);
  EXPECT_FALSE(inside_payload(copy));
  EXPECT_EQ(copy, *writer_leaf);
  EXPECT_EQ(copy.SizeBytes(), writer_leaf->SizeBytes());
  EXPECT_EQ(writer_leaf->SizeBytes(), modeled);

  // Readable through both read paths, with the record long gone.
  auto got = cluster.GetBlocking("shared");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, value);
  auto replica_got = ReplicaGet(cluster, rep, "shared");
  ASSERT_TRUE(replica_got.ok()) << replica_got.status().ToString();
  EXPECT_EQ(*replica_got, value);
}

TEST(Replica, ReadPointFeedsPgmrpl) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("g" + std::to_string(i), "v").ok());
  }
  cluster.RunFor(500 * kMillisecond);  // several report intervals
  // The writer's PGMRPL must not exceed the replica's read point.
  EXPECT_LE(cluster.writer()->ComputePgmrpl(), rep->MinReadPoint());
  EXPECT_GT(cluster.writer()->ComputePgmrpl(), 0u);
}

}  // namespace
}  // namespace aurora
