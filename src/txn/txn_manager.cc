#include "src/txn/txn_manager.h"

#include <algorithm>
#include <cassert>

namespace aurora::txn {

Transaction* TxnManager::Begin(SimTime now) {
  const TxnId id = next_txn_++;
  Transaction txn;
  txn.id = id;
  txn.state = TxnState::kActive;
  txn.start_time = now;
  auto [it, inserted] = txns_.emplace(id, std::move(txn));
  assert(inserted);
  active_.insert(id);
  started_++;
  return &it->second;
}

Transaction* TxnManager::Find(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : &it->second;
}

const Transaction* TxnManager::Find(TxnId id) const {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : &it->second;
}

std::set<TxnId> TxnManager::ActiveSet() const { return active_; }

void TxnManager::MarkCommitting(TxnId id, Scn scn) {
  Transaction* txn = Find(id);
  assert(txn != nullptr && txn->state == TxnState::kActive);
  txn->state = TxnState::kCommitting;
  txn->commit_scn = scn;
  active_.erase(id);
  commit_history_[id] = scn;
}

void TxnManager::MarkCommitted(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;  // already committed and forgotten
  assert(it->second.state == TxnState::kCommitting);
  // commit_history_ keeps the SCN; the rest of the record is done with.
  txns_.erase(it);
  committed_++;
}

void TxnManager::MarkAborted(TxnId id) {
  const size_t erased = txns_.erase(id);
  assert(erased == 1);
  (void)erased;
  active_.erase(id);
  aborted_++;
}

std::optional<Scn> TxnManager::CommitScnOf(TxnId id) const {
  auto it = commit_history_.find(id);
  if (it == commit_history_.end()) return std::nullopt;
  return it->second;
}

ReadView TxnManager::OpenReadView(Lsn read_lsn, TxnId own) {
  open_read_lsns_.insert(read_lsn);
  return ReadView(read_lsn, ActiveSet(), own);
}

void TxnManager::CloseReadView(const ReadView& view) {
  auto it = open_read_lsns_.find(view.read_lsn());
  if (it != open_read_lsns_.end()) open_read_lsns_.erase(it);
}

Lsn TxnManager::MinOpenReadLsn() const {
  return open_read_lsns_.empty() ? kInvalidLsn : *open_read_lsns_.begin();
}

std::vector<std::pair<TxnId, Scn>> TxnManager::CommitsUpTo(Scn scn) const {
  std::vector<std::pair<TxnId, Scn>> out;
  for (const auto& [id, commit_scn] : commit_history_) {
    if (commit_scn <= scn) out.emplace_back(id, commit_scn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t TxnManager::ActiveCount() const { return active_.size(); }

void TxnManager::InstallCommitNotification(TxnId id, Scn scn) {
  commit_history_[id] = scn;
  active_.erase(id);
}

void TxnManager::InstallActive(TxnId id) {
  if (!commit_history_.contains(id)) active_.insert(id);
}

}  // namespace aurora::txn
