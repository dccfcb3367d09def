// Unit tests for the transaction layer: row-version / undo codecs, read
// views and visibility, the transaction manager lifecycle and commit
// history, the commit queue, and the lock table.

#include <gtest/gtest.h>

#include "src/txn/commit_queue.h"
#include "src/txn/lock_table.h"
#include "src/txn/read_view.h"
#include "src/txn/row_version.h"
#include "src/txn/txn_manager.h"

namespace aurora::txn {
namespace {

// ---------------------------------------------------------------------- //
// Codecs

TEST(RowVersion, CodecRoundTrip) {
  RowVersion v;
  v.txn = 42;
  v.deleted = true;
  v.value = std::string("bin\x00ary", 7);
  v.undo = UndoPtr{17, "u42-3"};
  auto decoded = DecodeRowVersion(EncodeRowVersion(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, v);
}

TEST(RowVersion, NullUndoPtr) {
  RowVersion v;
  v.txn = 1;
  v.value = "x";
  EXPECT_TRUE(v.undo.IsNull());
  auto decoded = DecodeRowVersion(EncodeRowVersion(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->undo.IsNull());
}

TEST(RowVersion, DecodeRejectsGarbage) {
  EXPECT_TRUE(DecodeRowVersion("").status().IsCorruption());
  EXPECT_TRUE(DecodeRowVersion("short").status().IsCorruption());
  std::string good = EncodeRowVersion(RowVersion{1, false, "v", {}});
  good += "trailing";
  EXPECT_TRUE(DecodeRowVersion(good).status().IsCorruption());
}

TEST(UndoEntry, CodecRoundTrip) {
  UndoEntry entry;
  entry.row_key = "the-row";
  entry.prev_exists = true;
  entry.prev = RowVersion{7, false, "old", UndoPtr{3, "u7-0"}};
  entry.next = UndoPtr{9, "u42-1"};
  auto decoded = DecodeUndoEntry(EncodeUndoEntry(entry));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, entry);
}

TEST(UndoEntry, NonExistentPrev) {
  UndoEntry entry;
  entry.row_key = "k";
  entry.prev_exists = false;
  auto decoded = DecodeUndoEntry(EncodeUndoEntry(entry));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->prev_exists);
}

// ---------------------------------------------------------------------- //
// ReadView visibility

TEST(ReadView, SeesCommittedAtOrBelowAnchor) {
  ReadView view(100, {});
  EXPECT_TRUE(view.Sees(5, 50));
  EXPECT_TRUE(view.Sees(5, 100));
  EXPECT_FALSE(view.Sees(5, 101)) << "committed after the anchor";
  EXPECT_FALSE(view.Sees(5, kInvalidLsn)) << "uncommitted";
}

TEST(ReadView, ActiveTransactionsInvisible) {
  ReadView view(100, {7});
  // Even if a commit SCN is known (it committed after the view opened),
  // a transaction active at view creation stays invisible.
  EXPECT_FALSE(view.Sees(7, 90));
}

TEST(ReadView, OwnWritesAlwaysVisible) {
  ReadView view(100, {7}, /*own=*/7);
  EXPECT_TRUE(view.Sees(7, kInvalidLsn));
}

// ---------------------------------------------------------------------- //
// TxnManager

TEST(TxnManager, LifecycleAndActiveSet) {
  TxnManager manager;
  Transaction* t1 = manager.Begin(0);
  Transaction* t2 = manager.Begin(0);
  EXPECT_EQ(manager.ActiveSet(), (std::set<TxnId>{t1->id, t2->id}));

  const TxnId id1 = t1->id;
  const TxnId id2 = t2->id;
  manager.MarkCommitting(id1, 55);
  EXPECT_EQ(manager.ActiveSet(), (std::set<TxnId>{id2}));
  EXPECT_EQ(t1->state, TxnState::kCommitting);
  manager.MarkCommitted(id1);
  // A finished transaction is forgotten; commit history keeps its SCN.
  EXPECT_EQ(manager.Find(id1), nullptr);
  EXPECT_EQ(manager.CommitScnOf(id1), std::optional<Scn>(55));
  EXPECT_EQ(manager.committed(), 1u);
  manager.MarkCommitted(id1);  // a repeated ack is a no-op
  EXPECT_EQ(manager.committed(), 1u);

  manager.MarkAborted(id2);
  EXPECT_EQ(manager.Find(id2), nullptr);
  EXPECT_FALSE(manager.CommitScnOf(id2).has_value());
  EXPECT_TRUE(manager.ActiveSet().empty());
  EXPECT_EQ(manager.aborted(), 1u);
}

TEST(TxnManager, CommitHistoryQueries) {
  TxnManager manager;
  Transaction* t = manager.Begin(0);
  EXPECT_FALSE(manager.CommitScnOf(t->id).has_value());
  manager.MarkCommitting(t->id, 77);
  ASSERT_TRUE(manager.CommitScnOf(t->id).has_value());
  EXPECT_EQ(*manager.CommitScnOf(t->id), 77u);
  auto commits = manager.CommitsUpTo(100);
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_TRUE(manager.CommitsUpTo(50).empty());
}

TEST(TxnManager, ReadViewRegistryDrivesMinReadLsn) {
  TxnManager manager;
  EXPECT_EQ(manager.MinOpenReadLsn(), kInvalidLsn);
  ReadView v1 = manager.OpenReadView(100);
  ReadView v2 = manager.OpenReadView(200);
  EXPECT_EQ(manager.MinOpenReadLsn(), 100u);
  manager.CloseReadView(v1);
  EXPECT_EQ(manager.MinOpenReadLsn(), 200u);
  manager.CloseReadView(v2);
  EXPECT_EQ(manager.MinOpenReadLsn(), kInvalidLsn);
}

TEST(TxnManager, TxnIdFloorPreventsReuse) {
  TxnManager manager;
  manager.SetTxnIdFloor(1000);
  EXPECT_GE(manager.Begin(0)->id, 1000u);
}

TEST(TxnManager, ReplicaCommitNotifications) {
  TxnManager manager;
  manager.InstallActive(5);
  EXPECT_TRUE(manager.ActiveSet().contains(5));
  manager.InstallCommitNotification(5, 88);
  EXPECT_FALSE(manager.ActiveSet().contains(5));
  EXPECT_EQ(*manager.CommitScnOf(5), 88u);
  // A late "active" install for an already-committed txn is ignored.
  manager.InstallActive(5);
  EXPECT_FALSE(manager.ActiveSet().contains(5));
}

// ---------------------------------------------------------------------- //
// CommitQueue

TEST(CommitQueue, DrainsInScnOrderUpToVcl) {
  CommitQueue queue;
  std::vector<Scn> acked;
  for (Scn scn : {30, 10, 20, 40}) {
    queue.Enqueue(PendingCommit{1, static_cast<Scn>(scn), 0,
                                [&acked, scn]() { acked.push_back(scn); }});
  }
  for (auto& p : queue.DrainUpTo(25)) p.ack();
  EXPECT_EQ(acked, (std::vector<Scn>{10, 20}));
  EXPECT_EQ(queue.Size(), 2u);
  EXPECT_EQ(queue.MinPendingScn(), 30u);
  for (auto& p : queue.DrainUpTo(100)) p.ack();
  EXPECT_EQ(acked, (std::vector<Scn>{10, 20, 30, 40}));
  EXPECT_TRUE(queue.Empty());
}

TEST(CommitQueue, ClearDropsPending) {
  CommitQueue queue;
  bool acked = false;
  queue.Enqueue(PendingCommit{1, 10, 0, [&]() { acked = true; }});
  queue.Clear();
  EXPECT_TRUE(queue.DrainUpTo(100).empty());
  EXPECT_FALSE(acked);
}

TEST(CommitQueue, DuplicateScnsAllowed) {
  CommitQueue queue;
  int acks = 0;
  queue.Enqueue(PendingCommit{1, 10, 0, [&]() { acks++; }});
  queue.Enqueue(PendingCommit{2, 10, 0, [&]() { acks++; }});
  for (auto& p : queue.DrainUpTo(10)) p.ack();
  EXPECT_EQ(acks, 2);
}

// ---------------------------------------------------------------------- //
// LockTable

TEST(LockTable, ExclusiveConflicts) {
  LockTable locks;
  EXPECT_TRUE(locks.Acquire(1, "k").ok());
  EXPECT_TRUE(locks.Acquire(1, "k").ok()) << "re-entrant for holder";
  EXPECT_TRUE(locks.Acquire(2, "k").IsConflict());
  EXPECT_EQ(locks.conflicts(), 1u);
  locks.ReleaseAll(1);
  EXPECT_TRUE(locks.Acquire(2, "k").ok());
}

TEST(LockTable, ReleaseAllOnlyDropsOwn) {
  LockTable locks;
  ASSERT_TRUE(locks.Acquire(1, "a").ok());
  ASSERT_TRUE(locks.Acquire(2, "b").ok());
  locks.ReleaseAll(1);
  EXPECT_FALSE(locks.IsLocked("a"));
  EXPECT_TRUE(locks.IsLocked("b"));
}

TEST(LockTable, ClearIsEphemeralCrashSemantics) {
  LockTable locks;
  ASSERT_TRUE(locks.Acquire(1, "a").ok());
  locks.Clear();
  EXPECT_EQ(locks.LockCount(), 0u);
  EXPECT_TRUE(locks.Acquire(2, "a").ok());
}

}  // namespace
}  // namespace aurora::txn
