// Page-structured B+-tree access method.
//
// This is the substrate that makes mini-transactions meaningful: an insert
// that splits pages touches several blocks (leaf, new sibling, parent,
// meta) and all of those changes ride in ONE MTR — "each MTR is composed
// of changes to one or more data blocks, represented as a batch of
// sequenced redo log records to provide consistency of structural changes,
// such as those involving B-Tree splits" (§3.2).
//
// The tree is asynchronous over a page fetcher (cache-or-storage): descents
// fault pages in, then plans are built synchronously against cached pages
// and emitted as (block, PageOp) lists for the engine to wrap in an MTR.
// Deletes are MVCC tombstones at the row level, so pages never shrink
// except under purge; no page merging is implemented (lazy deletion, as in
// many production engines).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/storage/page.h"

namespace aurora::engine {

/// Well-known blocks. Block 0 is the volume meta page (tree root pointer,
/// allocation cursor); everything else is allocated through the meta
/// cursor.
inline constexpr BlockId kMetaBlock = 0;
inline constexpr BlockId kFirstAllocatableBlock = 1;

/// Meta-page entry keys. Block allocation keeps one cursor per protection
/// group ("alloc_pg_<n>" -> next within-group offset) so data stripes
/// across the volume's PGs; volume growth simply adds a cursor.
inline constexpr const char* kMetaRootKey = "root";
inline constexpr const char* kMetaAllocPrefix = "alloc_pg_";

inline std::string AllocCursorKey(ProtectionGroupId pg) {
  return kMetaAllocPrefix + std::to_string(pg);
}

/// Key namespaces inside the single B+-tree. User rows live under "d";
/// the persistent transaction-status index (txn id -> commit SCN, §2.3's
/// commit records made durable and readable by replicas and recovery)
/// lives under "t". Keeping status entries in the tree bounds every page
/// (splits), unlike a fixed status page that would grow with txn count.
inline constexpr char kDataKeyPrefix = 'd';
inline constexpr char kStatusKeyPrefix = 't';

inline std::string DataKey(const std::string& user_key) {
  return std::string(1, kDataKeyPrefix) + user_key;
}
inline std::string StatusKey(TxnId txn) {
  return std::string(1, kStatusKeyPrefix) + std::to_string(txn);
}

std::string EncodeU64Value(uint64_t v);
Result<uint64_t> DecodeU64Value(std::string_view encoded);

/// One physical page change staged for an MTR.
struct StagedOp {
  BlockId block = kInvalidBlock;
  storage::PageOp op;
};

struct BTreeOptions {
  /// Split threshold: a page splits when an insert would exceed this.
  size_t max_entries = 64;
};

class BTree {
 public:
  /// Fault-in: delivers a pointer to the cached page (valid for the
  /// duration of the callback's synchronous execution).
  using PageFetcher =
      std::function<void(BlockId, std::function<void(Result<storage::Page*>)>)>;
  /// Synchronous cache lookup (nullptr on miss) used during plan building.
  using CacheLookup = std::function<storage::Page*(BlockId)>;
  /// The same lookup without LRU promotion.
  using CachePeek = std::function<const storage::Page*(BlockId)>;
  /// Allocates a fresh block id and stages the allocation-cursor update.
  using BlockAllocator = std::function<BlockId(std::vector<StagedOp>*)>;

  BTree(BTreeOptions options, PageFetcher fetcher, CacheLookup cache,
        CachePeek peek)
      : options_(options),
        fetcher_(std::move(fetcher)),
        cache_(std::move(cache)),
        peek_(std::move(peek)) {}

  /// Ops that initialize an empty tree (meta + root leaf). The engine
  /// wraps them in the bootstrap MTR. `alloc_cursors[pg]` is the initial
  /// within-group allocation offset for each protection group.
  static std::vector<StagedOp> BootstrapOps(
      BlockId root_block, const std::vector<uint64_t>& alloc_cursors);

  /// Asynchronously resolves the root-to-leaf path for `key` (pages are
  /// faulted into cache along the way). The callback receives the path of
  /// block ids, root first, leaf last.
  void FindPath(const std::string& key,
                std::function<void(Result<std::vector<BlockId>>)> cb);

  /// Cache-only descent. Runs in one event, so the result cannot be
  /// invalidated by interleaved operations before it is used. Returns
  /// kAborted on any cache miss (WithPath faults in via FindPath and
  /// retries).
  Result<std::vector<BlockId>> FindPathSync(const std::string& key) const;

  /// Builds the staged ops for inserting/updating `key` -> `value` at the
  /// leaf of `path`, splitting pages as needed (all splits join the same
  /// MTR). Returns kAborted("retry") if a needed page fell out of cache or
  /// the path is stale (caller re-descends).
  Result<std::vector<StagedOp>> PlanInsert(const std::vector<BlockId>& path,
                                           const std::string& key,
                                           std::string value,
                                           const BlockAllocator& alloc);

  /// Most cache misses one WithPath call faults in before it gives up.
  static constexpr int kMaxPathFaults = 16;

  /// The one descent step for writes and point reads. Hands `key` back
  /// with its root-to-leaf path, every page of which is cached in the
  /// current event, so the caller can read the leaf and PlanInsert at
  /// once: cb(std::string key, Result<std::vector<BlockId>> path). Tries
  /// the cache-only descent; on a miss it faults the path in and descends
  /// the cache again, at most kMaxPathFaults times (then Aborted). Any
  /// other fetch or descent error is delivered as is. A cached path calls
  /// `cb` at once, so the hot path wraps nothing in a std::function.
  template <typename Callback>
  void WithPath(std::string key, Callback cb) {
    Result<std::vector<BlockId>> path = FindPathSync(key);
    if (path.ok() || !path.status().IsAborted()) {
      cb(std::move(key), std::move(path));
      return;
    }
    FaultInPath(std::move(key), std::move(cb), kMaxPathFaults);
  }

  /// Reads the raw leaf entry for `key` through WithPath. Delivers
  /// NotFound if absent.
  void GetEntry(std::string key, std::function<void(Result<std::string>)> cb);

  /// Collects raw leaf entries in [lo, hi], following leaf sibling links,
  /// up to `limit`. Delivered as (key, raw value) pairs.
  void ScanEntries(
      const std::string& lo, const std::string& hi, size_t limit,
      std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>
          cb);

  uint64_t splits() const { return splits_; }

 private:
  /// WithPath's miss branch: faults `key`'s path in, then descends the
  /// cache again without promoting (the fault-in already promoted the
  /// path's pages, in fetch order).
  template <typename Callback>
  void FaultInPath(std::string key, Callback cb, int faults) {
    if (faults <= 0) {
      cb(std::move(key),
         Status::Aborted("path kept falling out of the cache"));
      return;
    }
    FindPath(key, [this, key, cb = std::move(cb),
                   faults](Result<std::vector<BlockId>> faulted) mutable {
      if (!faulted.ok() && !faulted.status().IsAborted()) {
        cb(std::move(key), std::move(faulted));
        return;
      }
      Result<std::vector<BlockId>> path = Descend(key, /*peek=*/true);
      if (path.ok() || !path.status().IsAborted()) {
        cb(std::move(key), std::move(path));
        return;
      }
      FaultInPath(std::move(key), std::move(cb), faults - 1);
    });
  }

  /// Cache-only descent, promoting each page it reads unless `peek`:
  /// kAborted on any miss.
  Result<std::vector<BlockId>> Descend(const std::string& key,
                                       bool peek) const;

  void DescendFrom(BlockId block, std::string key,
                   std::vector<BlockId> path,
                   std::function<void(Result<std::vector<BlockId>>)> cb,
                   int depth_budget);
  void ScanStep(
      BlockId leaf, std::string lo, std::string hi, size_t limit,
      std::vector<std::pair<std::string, std::string>> acc,
      std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>
          cb);

  /// Routing: child block for `key` within internal page `page`.
  static Result<BlockId> ChildFor(const storage::Page& page,
                                  const std::string& key);

  BTreeOptions options_;
  PageFetcher fetcher_;
  CacheLookup cache_;
  CachePeek peek_;
  uint64_t splits_ = 0;
};

}  // namespace aurora::engine
