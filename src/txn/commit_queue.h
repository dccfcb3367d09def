// The commit queue of §2.3.
//
// "When a commit is received, the worker thread writes the commit record,
// puts the transaction on a commit queue, and returns to a common task
// queue... When a driver thread advances VCL, it wakes up a dedicated
// commit thread that scans the commit queue for SCNs below the new VCL and
// sends acknowledgements." In the simulation, "sending the ack" is the
// completion callback; worker threads never stall.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/common/types.h"

namespace aurora::txn {

/// A commit awaiting durability.
struct PendingCommit {
  TxnId txn = kInvalidTxn;
  Scn scn = kInvalidLsn;
  SimTime enqueued_at = 0;
  std::function<void()> ack;
};

/// SCN-ordered queue of unacknowledged commits.
class CommitQueue {
 public:
  void Enqueue(PendingCommit commit) {
    pending_.emplace(commit.scn, std::move(commit));
  }

  /// Removes and returns every pending commit with SCN <= vcl, in SCN
  /// order (the dedicated commit thread's scan).
  std::vector<PendingCommit> DrainUpTo(Lsn vcl) {
    std::vector<PendingCommit> out;
    auto end = pending_.upper_bound(vcl);
    for (auto it = pending_.begin(); it != end; ++it) {
      out.push_back(std::move(it->second));
    }
    pending_.erase(pending_.begin(), end);
    return out;
  }

  /// Drops everything (crash: un-acked commits simply vanish; recovery
  /// decides their fate by whether their SCN survived truncation).
  void Clear() { pending_.clear(); }

  size_t Size() const { return pending_.size(); }
  bool Empty() const { return pending_.empty(); }

  /// Smallest pending SCN (kInvalidLsn when empty).
  Scn MinPendingScn() const {
    return pending_.empty() ? kInvalidLsn : pending_.begin()->first;
  }

 private:
  std::multimap<Scn, PendingCommit> pending_;
};

}  // namespace aurora::txn
