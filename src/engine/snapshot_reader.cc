#include "src/engine/snapshot_reader.h"

namespace aurora::engine {

namespace {
/// Undo entries walked before a read gives up on a cyclic or runaway chain.
constexpr int kMaxUndoDepth = 256;
}  // namespace

SnapshotReader::SnapshotReader(size_t cache_pages, txn::TxnManager* txns,
                               BlockFetch fetch, std::function<Lsn()> vdl,
                               UndoMiss undo_miss)
    : txns_(txns),
      fetch_(std::move(fetch)),
      vdl_(std::move(vdl)),
      undo_miss_(std::move(undo_miss)),
      cache_(cache_pages),
      btree_(
          BTreeOptions{},
          [this](BlockId block, PageCallback cb) {
            WithPage(block, std::move(cb));
          },
          [this](BlockId block) { return CachedPage(block); },
          [this](BlockId block) { return cache_.Peek(block); }) {}

void SnapshotReader::Clear() {
  cache_.Clear();
  pending_fetches_.clear();
}

void SnapshotReader::WithPage(BlockId block, PageCallback cb) {
  if (storage::Page* page = CachedPage(block); page != nullptr) {
    cb(page);
    return;
  }
  cache_.CountMiss();
  auto [it, inserted] = pending_fetches_.try_emplace(block);
  it->second.push_back(std::move(cb));
  if (!inserted) return;  // fetch already in flight
  fetch_(block, [this, block](Result<storage::Page> page) {
    auto waiters = pending_fetches_.extract(block);
    if (waiters.empty()) return;  // cleared meanwhile
    if (!page.ok()) {
      for (auto& waiter : waiters.mapped()) waiter(page.status());
      return;
    }
    storage::Page* cached = cache_.Insert(std::move(*page), vdl_());
    for (auto& waiter : waiters.mapped()) {
      // Re-find each time: a previous waiter may have grown the cache and
      // evicted it (extremely unlikely, but correct).
      storage::Page* p = cache_.Find(block);
      waiter(p != nullptr ? p : cached);
    }
  });
}

void SnapshotReader::ResolveCommitScn(
    TxnId writer, std::function<void(std::optional<Scn>)> cb) {
  if (auto scn = txns_->CommitScnOf(writer); scn.has_value()) {
    cb(scn);
    return;
  }
  if (txns_->IsActive(writer)) {
    cb(std::nullopt);
    return;
  }
  // The persistent transaction-status index in the tree survives crashes:
  // it is how a recovered writer and a replica learn outcomes from before
  // they started. On a replica, entries above its VDL are not in its view
  // of the tree, which is right: such commits are not yet visible to its
  // read views either.
  btree_.GetEntry(StatusKey(writer), [this, writer, cb = std::move(cb)](
                                         Result<std::string> raw) {
    if (!raw.ok()) {
      // An unreadable status page also reads as "not committed", so a
      // read error can surface as an older version.
      cb(std::nullopt);
      return;
    }
    auto scn = DecodeU64Value(*raw);
    if (!scn.ok()) {
      cb(std::nullopt);
      return;
    }
    txns_->InstallCommitNotification(writer, *scn);
    cb(*scn);
  });
}

void SnapshotReader::ResolveVisible(std::string key, txn::RowVersion version,
                                    txn::ReadView view, ValueCallback cb,
                                    bool undo_fallback) {
  WalkUndo(std::move(key), std::move(version), std::move(view), std::move(cb),
           undo_fallback, kMaxUndoDepth);
}

void SnapshotReader::WalkUndo(std::string key, txn::RowVersion version,
                              txn::ReadView view, ValueCallback cb,
                              bool undo_fallback, int depth) {
  if (depth <= 0) {
    cb(Status::Internal("undo chain too deep"));
    return;
  }
  const TxnId writer = version.txn;
  ResolveCommitScn(writer, [this, key = std::move(key),
                            version = std::move(version),
                            view = std::move(view), cb = std::move(cb),
                            undo_fallback,
                            depth](std::optional<Scn> scn) mutable {
    if (view.Sees(version.txn, scn.value_or(kInvalidLsn))) {
      if (version.deleted) {
        cb(Status::NotFound("deleted in snapshot"));
      } else {
        cb(std::move(version.value));
      }
      return;
    }
    if (version.undo.IsNull()) {
      cb(Status::NotFound("no visible version"));
      return;
    }
    undo_chain_walks_++;
    const txn::UndoPtr undo = version.undo;
    WithPage(undo.block, [this, key = std::move(key), undo,
                          view = std::move(view), cb = std::move(cb),
                          undo_fallback,
                          depth](Result<storage::Page*> page) mutable {
      if (page.ok()) {
        auto it = (*page)->entries.find(undo.key);
        if (it != (*page)->entries.end()) {
          auto entry = txn::DecodeUndoEntry(it->second);
          if (!entry.ok()) {
            cb(entry.status());
            return;
          }
          if (!entry->prev_exists) {
            cb(Status::NotFound("row did not exist in snapshot"));
            return;
          }
          WalkUndo(std::move(key), std::move(entry->prev), std::move(view),
                   std::move(cb), undo_fallback, depth - 1);
          return;
        }
      }
      if (!undo_fallback) {
        cb(Status::NotFound("undo unavailable in snapshot"));
        return;
      }
      undo_miss_(key, view, page.ok() ? Status::OK() : page.status(),
                 std::move(cb));
    });
  });
}

void SnapshotReader::Get(const std::string& key, txn::ReadView view,
                         ValueCallback cb) {
  std::string internal_key = DataKey(key);
  btree_.GetEntry(internal_key, [this, internal_key, view = std::move(view),
                                 cb = std::move(cb)](
                                    Result<std::string> raw) mutable {
    if (!raw.ok()) {
      cb(raw.status());
      return;
    }
    auto version = txn::DecodeRowVersion(*raw);
    if (!version.ok()) {
      cb(version.status());
      return;
    }
    ResolveVisible(std::move(internal_key), std::move(*version),
                   std::move(view), std::move(cb));
  });
}

void SnapshotReader::Scan(const std::string& lo, const std::string& hi,
                          size_t limit, txn::ReadView view, RowsCallback cb) {
  btree_.ScanEntries(DataKey(lo), DataKey(hi), limit,
                     [this, view = std::move(view),
                      cb = std::move(cb)](Result<Rows> raw) mutable {
                       if (!raw.ok()) {
                         cb(raw.status());
                         return;
                       }
                       ScanResolve(std::move(*raw), 0, std::move(view), {},
                                   std::move(cb));
                     });
}

void SnapshotReader::ScanResolve(Rows raw, size_t index, txn::ReadView view,
                                 Rows acc, RowsCallback cb) {
  if (index >= raw.size()) {
    cb(std::move(acc));
    return;
  }
  auto version = txn::DecodeRowVersion(raw[index].second);
  if (!version.ok()) {
    cb(version.status());
    return;
  }
  std::string internal_key = raw[index].first;
  txn::ReadView row_view = view;
  ResolveVisible(
      std::move(internal_key), std::move(*version), std::move(row_view),
      [this, raw = std::move(raw), index, view = std::move(view),
       acc = std::move(acc),
       cb = std::move(cb)](Result<std::string> value) mutable {
        if (value.ok()) {
          // Strip the namespace prefix.
          acc.emplace_back(raw[index].first.substr(1), std::move(*value));
        } else if (!value.status().IsNotFound()) {
          cb(value.status());
          return;
        }
        ScanResolve(std::move(raw), index + 1, std::move(view),
                    std::move(acc), std::move(cb));
      });
}

}  // namespace aurora::engine
