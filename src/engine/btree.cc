#include "src/engine/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace aurora::engine {

std::string EncodeU64Value(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  return std::string(buf, 8);
}

Result<uint64_t> DecodeU64Value(std::string_view encoded) {
  if (encoded.size() != 8) return Status::Corruption("bad u64 value");
  uint64_t v;
  std::memcpy(&v, encoded.data(), 8);
  return v;
}

std::vector<StagedOp> BTree::BootstrapOps(
    BlockId root_block, const std::vector<uint64_t>& alloc_cursors) {
  std::vector<StagedOp> ops;
  // Meta page.
  {
    storage::PageOp format;
    format.type = storage::PageOpType::kFormat;
    format.page_type = storage::PageType::kMeta;
    ops.push_back({kMetaBlock, format});
    storage::PageOp root;
    root.type = storage::PageOpType::kInsert;
    root.key = kMetaRootKey;
    root.value = EncodeU64Value(root_block);
    ops.push_back({kMetaBlock, root});
    for (size_t pg = 0; pg < alloc_cursors.size(); ++pg) {
      storage::PageOp cursor;
      cursor.type = storage::PageOpType::kInsert;
      cursor.key = AllocCursorKey(static_cast<ProtectionGroupId>(pg));
      cursor.value = EncodeU64Value(alloc_cursors[pg]);
      ops.push_back({kMetaBlock, cursor});
    }
  }
  // Root leaf.
  {
    storage::PageOp format;
    format.type = storage::PageOpType::kFormat;
    format.page_type = storage::PageType::kLeaf;
    format.level = 0;
    ops.push_back({root_block, format});
  }
  return ops;
}

Result<BlockId> BTree::ChildFor(const storage::Page& page,
                                const std::string& key) {
  if (page.entries.empty()) {
    return Status::Corruption("internal page with no routers");
  }
  auto it = page.entries.upper_bound(key);
  if (it == page.entries.begin()) {
    return Status::Corruption("key below leftmost router");
  }
  --it;
  return DecodeU64Value(it->second);
}

void BTree::FindPath(const std::string& key,
                     std::function<void(Result<std::vector<BlockId>>)> cb) {
  fetcher_(kMetaBlock, [this, key, cb = std::move(cb)](
                           Result<storage::Page*> meta) {
    if (!meta.ok()) {
      cb(meta.status());
      return;
    }
    auto root_it = (*meta)->entries.find(kMetaRootKey);
    if (root_it == (*meta)->entries.end()) {
      cb(Status::Corruption("meta page missing root pointer"));
      return;
    }
    auto root = DecodeU64Value(root_it->second);
    if (!root.ok()) {
      cb(root.status());
      return;
    }
    DescendFrom(*root, key, {}, std::move(cb), 64);
  });
}

void BTree::DescendFrom(BlockId block, std::string key,
                        std::vector<BlockId> path,
                        std::function<void(Result<std::vector<BlockId>>)> cb,
                        int depth_budget) {
  if (depth_budget <= 0) {
    cb(Status::Internal("descent depth exceeded (corrupt tree?)"));
    return;
  }
  path.push_back(block);
  fetcher_(block, [this, key = std::move(key), path = std::move(path),
                   cb = std::move(cb),
                   depth_budget](Result<storage::Page*> page) mutable {
    if (!page.ok()) {
      cb(page.status());
      return;
    }
    storage::Page* p = *page;
    if (p->type == storage::PageType::kLeaf) {
      cb(std::move(path));
      return;
    }
    if (p->type != storage::PageType::kInternal) {
      cb(Status::Corruption("non-tree page in descent"));
      return;
    }
    auto child = ChildFor(*p, key);
    if (!child.ok()) {
      cb(child.status());
      return;
    }
    DescendFrom(*child, std::move(key), std::move(path), std::move(cb),
                depth_budget - 1);
  });
}

Result<std::vector<BlockId>> BTree::FindPathSync(
    const std::string& key) const {
  return Descend(key, /*peek=*/false);
}

Result<std::vector<BlockId>> BTree::Descend(const std::string& key,
                                            bool peek) const {
  auto lookup = [&](BlockId block) -> const storage::Page* {
    return peek ? peek_(block) : cache_(block);
  };
  const storage::Page* meta = lookup(kMetaBlock);
  if (meta == nullptr) return Status::Aborted("retry: meta not cached");
  auto root_it = meta->entries.find(kMetaRootKey);
  if (root_it == meta->entries.end()) {
    return Status::Corruption("meta page missing root pointer");
  }
  auto block = DecodeU64Value(root_it->second);
  if (!block.ok()) return block.status();
  std::vector<BlockId> path;
  for (int depth = 0; depth < 64; ++depth) {
    path.push_back(*block);
    const storage::Page* page = lookup(*block);
    if (page == nullptr) return Status::Aborted("retry: page not cached");
    if (page->type == storage::PageType::kLeaf) return path;
    if (page->type != storage::PageType::kInternal) {
      return Status::Corruption("non-tree page in descent");
    }
    auto child = ChildFor(*page, key);
    if (!child.ok()) return child.status();
    block = child;
  }
  return Status::Internal("descent depth exceeded (corrupt tree?)");
}

Result<std::vector<StagedOp>> BTree::PlanInsert(
    const std::vector<BlockId>& path, const std::string& key,
    std::string value, const BlockAllocator& alloc) {
  if (path.empty()) return Status::InvalidArgument("empty path");
  std::vector<StagedOp> ops;

  storage::Page* leaf = cache_(path.back());
  if (leaf == nullptr || leaf->type != storage::PageType::kLeaf) {
    return Status::Aborted("retry: leaf not cached or path stale");
  }
  storage::PageOp insert;
  insert.type = storage::PageOpType::kInsert;
  insert.key = key;
  insert.value = std::move(value);
  const bool update_in_place = leaf->entries.contains(key);
  if (update_in_place || leaf->entries.size() + 1 <= options_.max_entries) {
    ops.push_back({leaf->id, std::move(insert)});
    return ops;
  }

  // Split cascade. `pending_key/pending_child` is the router to add to the
  // next level up.
  // Build the merged key list for the leaf.
  std::vector<std::string_view> keys;
  keys.reserve(leaf->entries.size() + 1);
  for (const auto& [k, v] : leaf->entries) keys.push_back(k);
  keys.insert(std::upper_bound(keys.begin(), keys.end(), key), key);

  std::string pivot(keys[keys.size() / 2]);
  const BlockId right_block = alloc(&ops);
  if (right_block == kInvalidBlock) {
    return Status::OutOfRange("volume full: grow the volume to continue");
  }
  splits_++;
  {
    storage::PageOp format;
    format.type = storage::PageOpType::kFormat;
    format.page_type = storage::PageType::kLeaf;
    format.level = 0;
    ops.push_back({right_block, format});
    // Move upper half: inserts on the right, truncate on the left. The
    // new key's op above already targeted the leaf; if it belongs right,
    // retarget it.
    for (auto it = leaf->entries.lower_bound(pivot);
         it != leaf->entries.end(); ++it) {
      storage::PageOp move;
      move.type = storage::PageOpType::kInsert;
      move.key = it->first;
      move.value = it->second;
      ops.push_back({right_block, move});
    }
    // The new key joins whichever side it belongs to — after the format
    // and entry moves, so nothing wipes it.
    ops.push_back({key >= pivot ? right_block : leaf->id, std::move(insert)});
    storage::PageOp truncate;
    truncate.type = storage::PageOpType::kTruncateFrom;
    truncate.key = pivot;
    ops.push_back({leaf->id, truncate});
    storage::PageOp links;
    links.type = storage::PageOpType::kSetLinks;
    links.next = leaf->next;
    links.prev = leaf->id;
    ops.push_back({right_block, links});
    storage::PageOp left_links;
    left_links.type = storage::PageOpType::kSetLinks;
    left_links.next = right_block;
    left_links.prev = leaf->prev;
    ops.push_back({leaf->id, left_links});
  }

  std::string pending_key = pivot;
  BlockId pending_child = right_block;
  uint16_t child_level = 0;

  // Walk up the path inserting routers, splitting internals as needed.
  for (size_t i = path.size() - 1; i-- > 0;) {
    storage::Page* node = cache_(path[i]);
    if (node == nullptr || node->type != storage::PageType::kInternal) {
      return Status::Aborted("retry: internal page not cached");
    }
    storage::PageOp router;
    router.type = storage::PageOpType::kInsert;
    router.key = pending_key;
    router.value = EncodeU64Value(pending_child);
    if (node->entries.size() + 1 <= options_.max_entries) {
      ops.push_back({node->id, router});
      return ops;
    }
    // Split the internal node.
    std::vector<std::string_view> node_keys;
    node_keys.reserve(node->entries.size() + 1);
    for (const auto& [k, v] : node->entries) node_keys.push_back(k);
    node_keys.insert(
        std::upper_bound(node_keys.begin(), node_keys.end(), pending_key),
        pending_key);
    std::string node_pivot(node_keys[node_keys.size() / 2]);
    const BlockId new_right = alloc(&ops);
    if (new_right == kInvalidBlock) {
      return Status::OutOfRange("volume full: grow the volume to continue");
    }
    splits_++;
    storage::PageOp format;
    format.type = storage::PageOpType::kFormat;
    format.page_type = storage::PageType::kInternal;
    format.level = node->level;
    ops.push_back({new_right, format});
    for (auto it = node->entries.lower_bound(node_pivot);
         it != node->entries.end(); ++it) {
      storage::PageOp move;
      move.type = storage::PageOpType::kInsert;
      move.key = it->first;
      move.value = it->second;
      ops.push_back({new_right, move});
    }
    // Route the pending router to the correct side.
    ops.push_back(
        {pending_key >= node_pivot ? new_right : node->id, router});
    storage::PageOp truncate;
    truncate.type = storage::PageOpType::kTruncateFrom;
    truncate.key = node_pivot;
    ops.push_back({node->id, truncate});
    pending_key = node_pivot;
    pending_child = new_right;
    child_level = node->level;
    if (i == 0) {
      // Root split: allocate a new root.
      const BlockId new_root = alloc(&ops);
      if (new_root == kInvalidBlock) {
        return Status::OutOfRange("volume full: grow the volume to continue");
      }
      storage::PageOp root_format;
      root_format.type = storage::PageOpType::kFormat;
      root_format.page_type = storage::PageType::kInternal;
      root_format.level = static_cast<uint16_t>(child_level + 1);
      ops.push_back({new_root, root_format});
      storage::PageOp left_router;
      left_router.type = storage::PageOpType::kInsert;
      left_router.key = "";  // sentinel: leftmost child
      left_router.value = EncodeU64Value(node->id);
      ops.push_back({new_root, left_router});
      storage::PageOp right_router;
      right_router.type = storage::PageOpType::kInsert;
      right_router.key = pending_key;
      right_router.value = EncodeU64Value(pending_child);
      ops.push_back({new_root, right_router});
      storage::PageOp meta;
      meta.type = storage::PageOpType::kInsert;
      meta.key = kMetaRootKey;
      meta.value = EncodeU64Value(new_root);
      ops.push_back({kMetaBlock, meta});
      return ops;
    }
  }
  // path.size() == 1: the leaf was the root.
  const BlockId new_root = alloc(&ops);
  if (new_root == kInvalidBlock) {
    return Status::OutOfRange("volume full: grow the volume to continue");
  }
  storage::PageOp root_format;
  root_format.type = storage::PageOpType::kFormat;
  root_format.page_type = storage::PageType::kInternal;
  root_format.level = 1;
  ops.push_back({new_root, root_format});
  storage::PageOp left_router;
  left_router.type = storage::PageOpType::kInsert;
  left_router.key = "";
  left_router.value = EncodeU64Value(path.back());
  ops.push_back({new_root, left_router});
  storage::PageOp right_router;
  right_router.type = storage::PageOpType::kInsert;
  right_router.key = pending_key;
  right_router.value = EncodeU64Value(pending_child);
  ops.push_back({new_root, right_router});
  storage::PageOp meta;
  meta.type = storage::PageOpType::kInsert;
  meta.key = kMetaRootKey;
  meta.value = EncodeU64Value(new_root);
  ops.push_back({kMetaBlock, meta});
  return ops;
}

void BTree::GetEntry(std::string key,
                     std::function<void(Result<std::string>)> cb) {
  WithPath(std::move(key), [this, cb = std::move(cb)](
                               std::string key,
                               Result<std::vector<BlockId>> path) {
    if (!path.ok()) {
      cb(path.status());
      return;
    }
    const storage::Page* leaf = cache_(path->back());
    auto it = leaf->entries.find(key);
    if (it == leaf->entries.end()) {
      cb(Status::NotFound("key absent"));
      return;
    }
    cb(std::string(it->second));
  });
}

void BTree::ScanEntries(
    const std::string& lo, const std::string& hi, size_t limit,
    std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  FindPath(lo, [this, lo, hi, limit, cb = std::move(cb)](
                   Result<std::vector<BlockId>> path) {
    if (!path.ok()) {
      cb(path.status());
      return;
    }
    ScanStep(path->back(), lo, hi, limit, {}, std::move(cb));
  });
}

void BTree::ScanStep(
    BlockId leaf_block, std::string lo, std::string hi, size_t limit,
    std::vector<std::pair<std::string, std::string>> acc,
    std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  fetcher_(leaf_block, [this, lo = std::move(lo), hi = std::move(hi), limit,
                        acc = std::move(acc),
                        cb = std::move(cb)](Result<storage::Page*> page) mutable {
    if (!page.ok()) {
      cb(page.status());
      return;
    }
    storage::Page* leaf = *page;
    for (auto it = leaf->entries.lower_bound(lo);
         it != leaf->entries.end(); ++it) {
      if (it->first > hi || acc.size() >= limit) {
        cb(std::move(acc));
        return;
      }
      acc.emplace_back(it->first, it->second);
    }
    if (leaf->next == kInvalidBlock || acc.size() >= limit) {
      cb(std::move(acc));
      return;
    }
    ScanStep(leaf->next, std::move(lo), std::move(hi), limit, std::move(acc),
             std::move(cb));
  });
}

}  // namespace aurora::engine
