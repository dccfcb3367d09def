// The one snapshot-read path, shared by the writer and the read replicas.
//
// Paper §3.4: a replica reverses row versions through undo exactly as the
// writer does. So both own one SnapshotReader, which holds the buffer
// cache, the B+-tree over it and the in-flight page fetches, and resolves
// a caller-supplied read view:
//  * page fault-in, with concurrent misses on one block sharing a fetch;
//  * commit-SCN lookup: local commit history, then the active set, then
//    the persistent transaction-status index in the tree;
//  * the undo-chain walk back to the version the view sees;
//  * Get/Scan decode over the data namespace.
//
// The owner supplies only what differs between a writer and a replica:
// how a missing page is read from storage (its read point and PGMRPL),
// the VDL that gates eviction of a fetched page, and what happens when a
// version's undo cannot be read. It opens and closes the views and keeps
// its own per-caller stats and latency.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/engine/btree.h"
#include "src/engine/buffer_cache.h"
#include "src/engine/storage_driver.h"
#include "src/txn/read_view.h"
#include "src/txn/row_version.h"
#include "src/txn/txn_manager.h"

namespace aurora::engine {

class SnapshotReader {
 public:
  using PageCallback = std::function<void(Result<storage::Page*>)>;
  using ValueCallback = std::function<void(Result<std::string>)>;
  using Rows = std::vector<std::pair<std::string, std::string>>;
  using RowsCallback = std::function<void(Result<Rows>)>;
  /// Reads `block` from storage at the owner's read point and PGMRPL.
  using BlockFetch =
      std::function<void(BlockId, StorageDriver::ReadCallback)>;
  /// Decides a read whose version of internal key `key` has an undo entry
  /// that could not be read. `fetched` is the undo page's fetch status:
  /// OK when the page was read but lacks the entry.
  using UndoMiss =
      std::function<void(const std::string& key, const txn::ReadView& view,
                         const Status& fetched, ValueCallback cb)>;

  /// `txns` holds the owner's commit history and active set, and must
  /// outlive the reader.
  SnapshotReader(size_t cache_pages, txn::TxnManager* txns, BlockFetch fetch,
                 std::function<Lsn()> vdl, UndoMiss undo_miss);
  // The tree's page callbacks point at this reader.
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// Crash: drops every cached page and in-flight fetch (a late fetch
  /// reply finds no waiters). Counters survive, like the owner's stats.
  void Clear();

  BufferCache& cache() { return cache_; }
  BTree& btree() { return btree_; }
  storage::Page* CachedPage(BlockId block) { return cache_.Find(block); }
  /// Delivers the cached page, fetching it on a miss.
  void WithPage(BlockId block, PageCallback cb);

  /// The SCN `writer` committed at, or nullopt if it has not committed as
  /// far as this reader can see.
  void ResolveCommitScn(TxnId writer,
                        std::function<void(std::optional<Scn>)> cb);

  /// Walks from `version`, the newest version of internal key `key`, back
  /// through undo to the one `view` sees. NotFound if that version is a
  /// delete or the row did not exist. An unreadable undo entry goes to the
  /// owner's UndoMiss, or, without `undo_fallback`, reads as NotFound.
  void ResolveVisible(std::string key, txn::RowVersion version,
                      txn::ReadView view, ValueCallback cb,
                      bool undo_fallback = true);

  /// Snapshot point read of user key `key` in `view`.
  void Get(const std::string& key, txn::ReadView view, ValueCallback cb);
  /// Snapshot scan of user keys [lo, hi] in `view`, up to `limit` stored
  /// rows. A row that resolves to NotFound is skipped; any other error
  /// fails the scan.
  void Scan(const std::string& lo, const std::string& hi, size_t limit,
            txn::ReadView view, RowsCallback cb);

  uint64_t undo_chain_walks() const { return undo_chain_walks_; }

 private:
  void WalkUndo(std::string key, txn::RowVersion version, txn::ReadView view,
                ValueCallback cb, bool undo_fallback, int depth);
  void ScanResolve(Rows raw, size_t index, txn::ReadView view, Rows acc,
                   RowsCallback cb);

  txn::TxnManager* txns_;
  BlockFetch fetch_;
  std::function<Lsn()> vdl_;
  UndoMiss undo_miss_;
  BufferCache cache_;
  BTree btree_;
  std::map<BlockId, std::vector<PageCallback>> pending_fetches_;
  uint64_t undo_chain_walks_ = 0;
};

}  // namespace aurora::engine
