// Transaction lifecycle, active-transaction table, commit history, and the
// read-point bookkeeping behind PGMRPL (§3.4).
//
// The commit protocol (§2.3): a worker writes the commit redo record (whose
// LSN is the transaction's SCN), enqueues the transaction on the commit
// queue, and moves on. A dedicated commit thread drains the queue whenever
// VCL advances past pending SCNs — no flush, no consensus, no group-commit
// stall. Visibility composes with this naturally: a read view anchored at
// VDL sees a committed transaction iff its SCN <= the anchor, so data only
// becomes visible once it is also durable.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/txn/read_view.h"
#include "src/txn/row_version.h"

namespace aurora::txn {

/// A transaction the manager still holds: once committed or aborted it is
/// forgotten, and commit history answers for its SCN.
enum class TxnState {
  kActive,
  /// Commit record written; awaiting VCL >= SCN before acknowledgement.
  kCommitting,
};

struct Transaction {
  TxnId id = kInvalidTxn;
  TxnState state = TxnState::kActive;
  Scn commit_scn = kInvalidLsn;
  SimTime start_time = 0;
  /// Head of this transaction's undo chain (most recent entry first);
  /// rollback walks it.
  UndoPtr undo_head;
  uint64_t undo_seq = 0;
  /// Keys written (for lock release and rollback bookkeeping).
  std::vector<std::pair<BlockId, std::string>> writes;
};

/// Tracks transactions at one database instance (writer). Replicas keep a
/// reduced mirror built from shipped commit notifications (§3.4).
class TxnManager {
 public:
  /// Starts a transaction.
  Transaction* Begin(SimTime now);

  /// Active or committing transactions only; null once committed or
  /// aborted.
  Transaction* Find(TxnId id);
  const Transaction* Find(TxnId id) const;

  /// Ids of transactions in kActive state (the read-view active list).
  std::set<TxnId> ActiveSet() const;
  /// True iff `id` is in kActive state; ActiveSet().contains(id) without
  /// the copy.
  bool IsActive(TxnId id) const { return active_.contains(id); }

  /// Transition to kCommitting with the commit record's LSN as SCN. The
  /// transaction leaves the active set now; visibility is still gated by
  /// read anchors (SCN <= view LSN implies durable AND committed).
  void MarkCommitting(TxnId id, Scn scn);

  /// VCL has passed the SCN: commit is acknowledgeable. The transaction
  /// is forgotten (Find returns null); its SCN stays in commit history.
  void MarkCommitted(TxnId id);

  /// Rolled back: the transaction is forgotten (Find returns null).
  void MarkAborted(TxnId id);

  /// Commit SCN of `id`, if it ever committed (commit history).
  std::optional<Scn> CommitScnOf(TxnId id) const;

  /// Builds a read view anchored at `read_lsn` for `own` (may be
  /// kInvalidTxn for an autocommit read). The view is registered for
  /// PGMRPL purposes until CloseReadView.
  ReadView OpenReadView(Lsn read_lsn, TxnId own = kInvalidTxn);
  void CloseReadView(const ReadView& view);

  /// Lowest anchor among open read views, or kInvalidLsn if none — feeds
  /// PGMRPL: storage may not GC versions any open view might need.
  Lsn MinOpenReadLsn() const;

  /// Commit history entries with SCN <= `scn` (replica catch-up), in
  /// transaction-id order.
  std::vector<std::pair<TxnId, Scn>> CommitsUpTo(Scn scn) const;

  size_t ActiveCount() const;
  uint64_t started() const { return started_; }
  uint64_t committed() const { return committed_; }
  uint64_t aborted() const { return aborted_; }

  /// Ensures future transaction ids start at or above `floor` — used after
  /// crash recovery so ids never collide with a previous incarnation's
  /// (they key the persistent status index).
  void SetTxnIdFloor(TxnId floor) { next_txn_ = std::max(next_txn_, floor); }

  /// Replica-side: install a commit notification received from the writer.
  void InstallCommitNotification(TxnId id, Scn scn);
  /// Replica-side: install knowledge that a transaction is active.
  void InstallActive(TxnId id);

 private:
  TxnId next_txn_ = 1;
  std::map<TxnId, Transaction> txns_;
  std::set<TxnId> active_;
  /// Every commit's SCN by transaction id: CommitScnOf is on the read
  /// path's visibility check, so a hash lookup. Ids are not dense (they
  /// jump to the next LSN after recovery), so not a vector.
  std::unordered_map<TxnId, Scn> commit_history_;
  std::multiset<Lsn> open_read_lsns_;
  uint64_t started_ = 0;
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
};

}  // namespace aurora::txn
