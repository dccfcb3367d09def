#include "src/engine/buffer_cache.h"

namespace aurora::engine {

storage::Page* BufferCache::Find(BlockId block) {
  auto it = pages_.find(block);
  if (it == pages_.end()) return nullptr;
  stats_.hits++;
  Touch(it->second);
  return &it->second.page;
}

const storage::Page* BufferCache::Peek(BlockId block) const {
  auto it = pages_.find(block);
  return it == pages_.end() ? nullptr : &it->second.page;
}

storage::Page* BufferCache::Insert(storage::Page page, Lsn vdl) {
  const BlockId block = page.id;
  auto it = pages_.find(block);
  if (it != pages_.end()) {
    it->second.page = std::move(page);
    Touch(it->second);
    return &it->second.page;
  }
  // Make room BEFORE inserting so the returned pointer cannot be evicted
  // by its own insertion.
  if (capacity_ > 0 && pages_.size() >= capacity_) {
    TrimTo(capacity_ - 1, vdl);
  }
  lru_.push_front(block);
  auto [inserted, ok] =
      pages_.emplace(block, Entry{std::move(page), lru_.begin()});
  return &inserted->second.page;
}

void BufferCache::Pin(BlockId block) {
  auto it = pages_.find(block);
  if (it != pages_.end()) it->second.pins++;
}

void BufferCache::Unpin(BlockId block) {
  auto it = pages_.find(block);
  if (it != pages_.end() && it->second.pins > 0) it->second.pins--;
}

void BufferCache::Erase(BlockId block) {
  auto it = pages_.find(block);
  if (it == pages_.end()) return;
  lru_.erase(it->second.lru_it);
  pages_.erase(it);
}

void BufferCache::TrimToCapacity(Lsn vdl) { TrimTo(capacity_, vdl); }

void BufferCache::TrimTo(size_t target, Lsn vdl) {
  if (pages_.size() <= target) return;
  // Walk from the LRU end, skipping pages the WAL rule pins (page_lsn >
  // VDL: their redo is not yet durable).
  auto it = lru_.rbegin();
  while (pages_.size() > target && it != lru_.rend()) {
    const BlockId block = *it;
    auto entry = pages_.find(block);
    ++it;  // advance before any erase invalidates the position
    if (entry == pages_.end()) continue;
    if (entry->second.pins > 0) continue;  // latched by an open MTR
    if (entry->second.page.page_lsn > vdl) {
      stats_.wal_blocked_evictions++;
      continue;
    }
    // reverse_iterator.base() quirks: erase via the stored iterator.
    lru_.erase(entry->second.lru_it);
    pages_.erase(entry);
    stats_.evictions++;
    it = lru_.rbegin();  // restart: erase invalidated reverse positions
  }
}

void BufferCache::Clear() {
  pages_.clear();
  lru_.clear();
}

}  // namespace aurora::engine
