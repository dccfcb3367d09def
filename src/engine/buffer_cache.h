// The writer/replica buffer cache with the Aurora WAL eviction rule.
//
// §3.1: "Even though Aurora does not write blocks to storage from the
// database instance, it must support write-ahead logging by ensuring redo
// log records for dirty blocks have been made durable before discarding
// the block from cache." Concretely: a page whose page_lsn exceeds VDL may
// not be evicted; once page_lsn <= VDL the durable materialized version at
// storage is identical, so the page can simply be dropped (no write-back,
// ever).

#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "src/common/types.h"
#include "src/storage/page.h"

namespace aurora::engine {

struct BufferCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Eviction attempts refused because every LRU candidate was above VDL.
  uint64_t wal_blocked_evictions = 0;
};

/// LRU page cache. Pages are mutated in place by the engine (redo is
/// applied to the cached image as records are generated, §2.2).
class BufferCache {
 public:
  explicit BufferCache(size_t capacity_pages)
      : capacity_(capacity_pages) {}

  /// Looks up a page and promotes it in LRU order.
  storage::Page* Find(BlockId block);

  /// Peeks without LRU promotion (diagnostics).
  const storage::Page* Peek(BlockId block) const;

  /// Inserts (or replaces) a page; evicts LRU pages over capacity, but
  /// only those with page_lsn <= `vdl` (the WAL rule). The cache may
  /// temporarily exceed capacity when VDL lags.
  storage::Page* Insert(storage::Page page, Lsn vdl);

  /// Drops a specific page regardless of LSN (used on fencing).
  void Erase(BlockId block);

  /// Pins a cached page: pinned pages are never evicted (MTR application
  /// mutates several pages in one atomic step and each must stay resident
  /// until the last record is built — the latching of §3.2). No-op if the
  /// block is not cached.
  void Pin(BlockId block);
  void Unpin(BlockId block);

  /// Attempts to shrink to capacity given the current `vdl`.
  void TrimToCapacity(Lsn vdl);

  /// Crash: the cache is volatile.
  void Clear();

  size_t Size() const { return pages_.size(); }
  size_t capacity() const { return capacity_; }
  const BufferCacheStats& stats() const { return stats_; }
  void CountMiss() { stats_.misses++; }

 private:
  struct Entry {
    storage::Page page;
    std::list<BlockId>::iterator lru_it;
    int pins = 0;
  };

  /// Moves the entry's LRU node to the front; splice re-links the node in
  /// place, so a cache hit allocates nothing.
  void Touch(Entry& entry) {
    lru_.splice(lru_.begin(), lru_, entry.lru_it);
  }

  void TrimTo(size_t target, Lsn vdl);

  size_t capacity_;
  std::unordered_map<BlockId, Entry> pages_;
  std::list<BlockId> lru_;  // front = most recent
  BufferCacheStats stats_;
};

}  // namespace aurora::engine
