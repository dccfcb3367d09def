// MVCC read views (§3.1).
//
// "A read view establishes a logical point in time before which a SQL
// statement must see all changes and after which it may not see any
// changes other than its own." A view anchors at an LSN (the writer's VDL,
// or a VDL control point on a replica, §3.4) and carries the transactions
// active as of that point.

#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "src/common/types.h"

namespace aurora::txn {

/// An immutable snapshot descriptor.
class ReadView {
 public:
  ReadView() = default;
  ReadView(Lsn read_lsn, std::set<TxnId> active, TxnId own = kInvalidTxn)
      : read_lsn_(read_lsn), active_(std::move(active)), own_(own) {}

  /// The anchor: data block versions read must be at or below this LSN.
  Lsn read_lsn() const { return read_lsn_; }
  const std::set<TxnId>& active() const { return active_; }

  /// Visibility of a row version written by `writer`, which committed at
  /// `commit_scn` (kInvalidLsn if not committed as far as the caller
  /// knows). Own writes are always visible.
  bool Sees(TxnId writer, Scn commit_scn) const {
    if (writer == own_ && own_ != kInvalidTxn) return true;
    if (active_.contains(writer)) return false;
    if (commit_scn == kInvalidLsn) return false;  // uncommitted
    return commit_scn <= read_lsn_;
  }

  std::string ToString() const;

 private:
  Lsn read_lsn_ = kInvalidLsn;
  std::set<TxnId> active_;
  TxnId own_ = kInvalidTxn;
};

}  // namespace aurora::txn
