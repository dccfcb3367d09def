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
  /// Allocates a fresh block id and stages the allocation-cursor update.
  using BlockAllocator = std::function<BlockId(std::vector<StagedOp>*)>;

  BTree(BTreeOptions options, PageFetcher fetcher, CacheLookup cache)
      : options_(options),
        fetcher_(std::move(fetcher)),
        cache_(std::move(cache)) {}

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
  /// kAborted on any cache miss (caller faults in via FindPath and
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

  /// Reads the raw leaf entry for `key` via an async descent. Delivers
  /// NotFound if absent.
  void GetEntry(const std::string& key,
                std::function<void(Result<std::string>)> cb);

  /// Collects raw leaf entries in [lo, hi], following leaf sibling links,
  /// up to `limit`. Delivered as (key, raw value) pairs.
  void ScanEntries(
      const std::string& lo, const std::string& hi, size_t limit,
      std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>
          cb);

  uint64_t splits() const { return splits_; }

 private:
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
  uint64_t splits_ = 0;
};

}  // namespace aurora::engine
