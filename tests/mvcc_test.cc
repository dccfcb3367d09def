// MVCC edge cases on the live engine: long version chains, undo-page
// rollover, write-write conflicts, delete visibility, leftover cleanup
// after crashes, writes into a cold cache after recovery, one
// compensation rule for rollback and crash cleanup, and scans under
// concurrent writers.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace aurora {
namespace {

core::AuroraOptions Options(uint64_t seed) {
  core::AuroraOptions options;
  options.seed = seed;
  options.blocks_per_pg = 1 << 16;
  return options;
}

TEST(Mvcc, LongVersionChainResolvesAtEveryAnchor) {
  core::AuroraCluster cluster(Options(91));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  // Open a view, then bury the key under many committed versions.
  auto* writer = cluster.writer();
  ASSERT_TRUE(cluster.PutBlocking("deep", "v0").ok());
  const TxnId old_reader = writer->Begin();
  bool pinned = false;
  writer->Get(old_reader, "deep", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "v0");
    pinned = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return pinned; }));
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("deep", "v" + std::to_string(i)).ok());
  }
  // The pinned reader still resolves v0 through 30 undo hops.
  bool read_done = false;
  writer->Get(old_reader, "deep", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, "v0");
    read_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return read_done; }));
  EXPECT_GT(writer->stats().undo_chain_walks, 25u);
  ASSERT_TRUE(cluster.CommitBlocking(old_reader).ok());
  EXPECT_EQ(*cluster.GetBlocking("deep"), "v30");
}

TEST(Mvcc, FinishedTransactionsAreForgotten) {
  core::AuroraCluster cluster(Options(96));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* writer = cluster.writer();
  // 40 commits over 10 keys: from the second round on, each write lands
  // on a version whose writer is already gone from the transaction table,
  // so commit history alone must vouch for it.
  std::vector<TxnId> committed;
  for (int i = 0; i < 40; ++i) {
    const TxnId txn = writer->Begin();
    bool put = false;
    writer->Put(txn, "f" + std::to_string(i % 10), "v" + std::to_string(i),
                [&](Status st) {
                  ASSERT_TRUE(st.ok()) << st.ToString();
                  put = true;
                });
    ASSERT_TRUE(cluster.RunUntil([&]() { return put; }));
    ASSERT_TRUE(cluster.CommitBlocking(txn).ok());
    committed.push_back(txn);
  }
  const TxnId rolled_back = writer->Begin();
  bool put = false;
  writer->Put(rolled_back, "f0", "never", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return put; }));
  ASSERT_TRUE(cluster.RollbackBlocking(rolled_back).ok());

  for (TxnId txn : committed) {
    EXPECT_EQ(writer->txns().Find(txn), nullptr) << txn;
    EXPECT_TRUE(writer->txns().CommitScnOf(txn).has_value()) << txn;
  }
  EXPECT_EQ(writer->txns().Find(rolled_back), nullptr);
  EXPECT_EQ(writer->txns().ActiveCount(), 0u);
  for (int k = 0; k < 10; ++k) {
    auto value = cluster.GetBlocking("f" + std::to_string(k));
    ASSERT_TRUE(value.ok()) << k << ": " << value.status().ToString();
    EXPECT_EQ(*value, "v" + std::to_string(30 + k));
  }
}

TEST(Mvcc, UndoPageRolloverWithinOneTransaction) {
  core::AuroraOptions options = Options(92);
  options.db.undo_entries_per_page = 8;  // force several undo pages
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  int pending = 30;
  for (int i = 0; i < 30; ++i) {
    writer->Put(txn, "u" + std::to_string(i), "v", [&](Status st) {
      ASSERT_TRUE(st.ok());
      pending--;
    });
  }
  ASSERT_TRUE(cluster.RunUntil([&]() { return pending == 0; }));
  // Rollback walks the chain across all undo pages.
  ASSERT_TRUE(cluster.RollbackBlocking(txn).ok());
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(
        cluster.GetBlocking("u" + std::to_string(i)).status().IsNotFound())
        << i;
  }
}

TEST(Mvcc, WriteWriteConflictSurfacesImmediately) {
  core::AuroraCluster cluster(Options(93));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* writer = cluster.writer();
  const TxnId t1 = writer->Begin();
  const TxnId t2 = writer->Begin();
  bool t1_done = false;
  writer->Put(t1, "contested", "t1", [&](Status st) {
    ASSERT_TRUE(st.ok());
    t1_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return t1_done; }));
  bool t2_done = false;
  Status t2_status = Status::OK();
  writer->Put(t2, "contested", "t2", [&](Status st) {
    t2_status = std::move(st);
    t2_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return t2_done; }));
  EXPECT_TRUE(t2_status.IsConflict()) << "no waits => immediate conflict";
  // After t1 commits (releasing locks), t2's retry succeeds.
  ASSERT_TRUE(cluster.CommitBlocking(t1).ok());
  t2_done = false;
  writer->Put(t2, "contested", "t2", [&](Status st) {
    t2_status = std::move(st);
    t2_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return t2_done; }));
  EXPECT_TRUE(t2_status.ok());
  ASSERT_TRUE(cluster.CommitBlocking(t2).ok());
  EXPECT_EQ(*cluster.GetBlocking("contested"), "t2");
}

TEST(Mvcc, DeleteVisibleOnlyAfterCommit) {
  core::AuroraCluster cluster(Options(94));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("doomed", "alive").ok());
  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  bool del_done = false;
  writer->Delete(txn, "doomed", [&](Status st) {
    ASSERT_TRUE(st.ok());
    del_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return del_done; }));
  // Uncommitted delete: other readers still see the row.
  EXPECT_EQ(*cluster.GetBlocking("doomed"), "alive");
  // The deleter's own view sees the tombstone.
  bool own_done = false;
  writer->Get(txn, "doomed", [&](Result<std::string> r) {
    EXPECT_TRUE(r.status().IsNotFound());
    own_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return own_done; }));
  ASSERT_TRUE(cluster.CommitBlocking(txn).ok());
  EXPECT_TRUE(cluster.GetBlocking("doomed").status().IsNotFound());
}

TEST(Mvcc, LeftoverFromCrashedWriterCleanedOnTouch) {
  core::AuroraCluster cluster(Options(95));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("touched", "committed").ok());
  auto* writer = cluster.writer();
  const TxnId loser = writer->Begin();
  bool put_done = false;
  writer->Put(loser, "touched", "dirty", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return put_done; }));
  cluster.RunFor(50 * kMillisecond);  // leftover becomes durable
  cluster.CrashWriter();
  cluster.RunFor(10 * kMillisecond);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());

  // A new WRITE to the key must first roll the leftover back (§2.4 undo
  // "in parallel with user activity"), then apply.
  ASSERT_TRUE(cluster.PutBlocking("touched", "fresh").ok());
  EXPECT_EQ(*cluster.GetBlocking("touched"), "fresh");
  EXPECT_GE(cluster.writer()->stats().leftover_rollbacks, 1u);
}

std::string RowKey(int i) {
  char key[8];
  std::snprintf(key, sizeof(key), "k%05d", i);
  return key;
}

Status AwaitStatus(core::AuroraCluster& cluster,
                   const std::function<void(std::function<void(Status)>)>& op) {
  std::optional<Status> result;
  op([&](Status st) { result = std::move(st); });
  if (!cluster.RunUntil([&]() { return result.has_value(); })) {
    return Status::TimedOut("operation did not complete");
  }
  return *result;
}

void CrashAndRecover(core::AuroraCluster& cluster) {
  cluster.RunFor(50 * kMillisecond);  // everything written becomes durable
  cluster.CrashWriter();
  cluster.RunFor(10 * kMillisecond);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
}

TEST(Mvcc, PutAfterRecoveryFaultsInItsOwnLeaf) {
  // 600 rows span several leaves. Recovery starts with an empty cache, so
  // the first write to each key must fault in that key's path, not the
  // leftmost leaf's.
  core::AuroraCluster cluster(Options(97));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(cluster.PutBlocking(RowKey(i), "v0").ok()) << i;
  }
  ASSERT_GT(cluster.writer()->btree()->splits(), 2u);
  ASSERT_NO_FATAL_FAILURE(CrashAndRecover(cluster));
  for (int i : {599, 598, 500, 300, 100, 0}) {
    const Status st = cluster.PutBlocking(RowKey(i), "v1");
    ASSERT_TRUE(st.ok()) << RowKey(i) << ": " << st.ToString();
  }
  EXPECT_EQ(*cluster.GetBlocking(RowKey(599)), "v1");
  EXPECT_EQ(*cluster.GetBlocking(RowKey(300)), "v1");
  EXPECT_EQ(*cluster.GetBlocking(RowKey(301)), "v0");
  EXPECT_EQ(cluster.writer()->txns().ActiveCount(), 0u);
}

TEST(Mvcc, LeftoversOutsideTheLeftmostLeafAreCleanedOnTouch) {
  core::AuroraCluster cluster(Options(98));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(cluster.PutBlocking(RowKey(i), "v0").ok()) << i;
  }
  // A transaction overwrites every third row and dies with the writer.
  auto* writer = cluster.writer();
  const TxnId loser = writer->Begin();
  for (int i = 0; i < 600; i += 3) {
    ASSERT_TRUE(AwaitStatus(cluster, [&](auto done) {
                  writer->Put(loser, RowKey(i), "dirty", done);
                }).ok())
        << i;
  }
  ASSERT_NO_FATAL_FAILURE(CrashAndRecover(cluster));
  int touched = 0;
  for (int i = 0; i < 600; i += 3) {
    const Status st = cluster.PutBlocking(RowKey(i), "v1");
    ASSERT_TRUE(st.ok()) << RowKey(i) << ": " << st.ToString();
    ++touched;
  }
  EXPECT_EQ(touched, 200);
  EXPECT_GE(cluster.writer()->stats().leftover_rollbacks, 200u);
  for (int i = 0; i < 600; i += 37) {
    EXPECT_EQ(*cluster.GetBlocking(RowKey(i)), i % 3 == 0 ? "v1" : "v0")
        << RowKey(i);
  }
}

// One transaction updates `a` twice, deletes `b`, inserts `c` and updates
// `d`; undoing it must bring back every pre-transaction value, whether a
// live rollback or the crash cleanup of a later write undoes it.
void WriteDoomedTransaction(core::AuroraCluster& cluster, TxnId* txn_out) {
  for (const char* key : {"a", "b", "d"}) {
    ASSERT_TRUE(cluster.PutBlocking(key, std::string(key) + "0").ok());
  }
  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  *txn_out = txn;
  auto write = [&](const char* key, std::optional<std::string> value) {
    const Status st = AwaitStatus(cluster, [&](auto done) {
      if (value.has_value()) {
        writer->Put(txn, key, *value, done);
      } else {
        writer->Delete(txn, key, done);
      }
    });
    ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
  };
  write("a", "a1");
  write("a", "a2");
  write("b", std::nullopt);
  write("c", "c1");
  write("d", "d1");
}

void ExpectPreTransactionValues(core::AuroraCluster& cluster) {
  EXPECT_EQ(*cluster.GetBlocking("a"), "a0");
  EXPECT_EQ(*cluster.GetBlocking("b"), "b0");
  EXPECT_TRUE(cluster.GetBlocking("c").status().IsNotFound());
  EXPECT_EQ(*cluster.GetBlocking("d"), "d0");
  EXPECT_EQ(cluster.writer()->txns().ActiveCount(), 0u);
  EXPECT_EQ(cluster.writer()->locks().LockCount(), 0u);
}

TEST(Mvcc, RollbackRestoresPreTransactionValues) {
  core::AuroraCluster cluster(Options(99));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  TxnId txn = kInvalidTxn;
  ASSERT_NO_FATAL_FAILURE(WriteDoomedTransaction(cluster, &txn));
  ASSERT_TRUE(cluster.RollbackBlocking(txn).ok());
  ExpectPreTransactionValues(cluster);
}

TEST(Mvcc, CrashCleanupRestoresPreTransactionValues) {
  core::AuroraCluster cluster(Options(99));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  TxnId txn = kInvalidTxn;
  ASSERT_NO_FATAL_FAILURE(WriteDoomedTransaction(cluster, &txn));
  ASSERT_NO_FATAL_FAILURE(CrashAndRecover(cluster));
  // Each touch compensates the leftover, then is itself rolled back.
  auto* writer = cluster.writer();
  for (const char* key : {"a", "b", "c", "d"}) {
    const TxnId toucher = writer->Begin();
    const Status st = AwaitStatus(cluster, [&](auto done) {
      writer->Put(toucher, key, "touch", done);
    });
    ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
    ASSERT_TRUE(cluster.RollbackBlocking(toucher).ok()) << key;
  }
  EXPECT_EQ(writer->stats().leftover_rollbacks, 4u);
  ExpectPreTransactionValues(cluster);
}

TEST(Mvcc, ScanIsSnapshotConsistentUnderConcurrentCommits) {
  core::AuroraCluster cluster(Options(96));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "s%02d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, "old").ok());
  }
  auto* writer = cluster.writer();
  const TxnId reader = writer->Begin();
  // Pin the snapshot with a first statement.
  bool pinned = false;
  writer->Get(reader, "s00", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    pinned = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return pinned; }));
  // Concurrent overwrites + a new row.
  for (int i = 0; i < 5; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "s%02d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, "new").ok());
  }
  ASSERT_TRUE(cluster.PutBlocking("s99", "phantom").ok());

  bool scanned = false;
  writer->Scan(reader, "s00", "s99", 100, [&](auto rows) {
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 10u) << "phantom must not appear";
    for (const auto& [k, v] : *rows) {
      EXPECT_EQ(v, "old") << k << " must show the snapshot version";
    }
    scanned = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return scanned; }));
  ASSERT_TRUE(cluster.CommitBlocking(reader).ok());
}

}  // namespace
}  // namespace aurora
