// Direct B+-tree unit tests over a synchronous fake page source: splits,
// root growth, descent correctness, scans across leaves, MTR op-plan
// shapes, and the volume-full path.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "src/engine/btree.h"

namespace aurora::engine {
namespace {

/// A synchronous in-memory "cache + storage": every page always present.
class FakePages {
 public:
  explicit FakePages(size_t max_entries)
      : options_{.max_entries = max_entries} {
    // Bootstrap: meta + root leaf, one PG with a huge cursor space.
    for (const auto& staged :
         BTree::BootstrapOps(kFirstAllocatableBlock, {2})) {
      Apply(staged);
    }
  }

  BTree MakeTree() {
    return BTree(
        options_,
        [this](BlockId block, std::function<void(Result<storage::Page*>)> cb) {
          auto it = pages_.find(block);
          if (it == pages_.end()) {
            cb(Status::NotFound("no such page"));
          } else {
            ++fetches_;
            cached_.insert(block);
            cb(&it->second);
          }
        },
        [this](BlockId block) { return Find(block); },
        [this](BlockId block) { return Find(block); });
  }

  storage::Page* Find(BlockId block) {
    if (cold_ && !cached_.contains(block)) return nullptr;
    auto it = pages_.find(block);
    return it == pages_.end() ? nullptr : &it->second;
  }

  /// From now on the cache holds only pages the fetcher has delivered
  /// since.
  void DropCache() {
    cold_ = true;
    cached_.clear();
  }
  size_t fetches() const { return fetches_; }

  /// Applies a staged op directly (stands in for AppendMtr).
  void Apply(const StagedOp& staged) {
    storage::Page& page = pages_[staged.block];
    page.id = staged.block;
    ASSERT_TRUE(ApplyRedoPayload(&page, EncodePageOp(staged.op), ++lsn_).ok());
  }

  void ApplyAll(const std::vector<StagedOp>& ops) {
    for (const auto& op : ops) Apply(op);
  }

  /// Allocator over one PG of `capacity` blocks.
  BTree::BlockAllocator Allocator(uint64_t capacity = 1 << 20) {
    return [this, capacity](std::vector<StagedOp>* ops) -> BlockId {
      auto it = pages_[kMetaBlock].entries.find(AllocCursorKey(0));
      uint64_t cursor = *DecodeU64Value(it->second);
      // Staged bumps in this MTR win.
      for (auto staged = ops->rbegin(); staged != ops->rend(); ++staged) {
        if (staged->block == kMetaBlock &&
            staged->op.key == AllocCursorKey(0)) {
          cursor = *DecodeU64Value(staged->op.value);
          break;
        }
      }
      if (cursor >= capacity) return kInvalidBlock;
      storage::PageOp bump;
      bump.type = storage::PageOpType::kInsert;
      bump.key = AllocCursorKey(0);
      bump.value = EncodeU64Value(cursor + 1);
      ops->push_back({kMetaBlock, bump});
      return cursor;
    };
  }

  size_t PageCount() const { return pages_.size(); }
  const storage::Page& page(BlockId id) const { return pages_.at(id); }

 private:
  BTreeOptions options_;
  std::map<BlockId, storage::Page> pages_;
  bool cold_ = false;
  std::set<BlockId> cached_;
  size_t fetches_ = 0;
  Lsn lsn_ = 0;
};

Status Insert(BTree& tree, FakePages& pages, const std::string& key,
              const std::string& value) {
  auto path = tree.FindPathSync(key);
  if (!path.ok()) return path.status();
  auto plan = tree.PlanInsert(*path, key, value, pages.Allocator());
  if (!plan.ok()) return plan.status();
  pages.ApplyAll(*plan);
  return Status::OK();
}

Result<std::string> Lookup(BTree& tree, const std::string& key) {
  Result<std::string> out = Status::Internal("no callback");
  tree.GetEntry(key, [&](Result<std::string> r) { out = std::move(r); });
  return out;
}

TEST(BTree, InsertAndLookupNoSplit) {
  FakePages pages(8);
  BTree tree = pages.MakeTree();
  ASSERT_TRUE(Insert(tree, pages, "b", "2").ok());
  ASSERT_TRUE(Insert(tree, pages, "a", "1").ok());
  EXPECT_EQ(*Lookup(tree, "a"), "1");
  EXPECT_EQ(*Lookup(tree, "b"), "2");
  EXPECT_TRUE(Lookup(tree, "c").status().IsNotFound());
  EXPECT_EQ(tree.splits(), 0u);
}

TEST(BTree, UpdateInPlace) {
  FakePages pages(8);
  BTree tree = pages.MakeTree();
  ASSERT_TRUE(Insert(tree, pages, "k", "v1").ok());
  ASSERT_TRUE(Insert(tree, pages, "k", "v2").ok());
  EXPECT_EQ(*Lookup(tree, "k"), "v2");
}

TEST(BTree, LeafSplitAndRootGrowth) {
  FakePages pages(4);
  BTree tree = pages.MakeTree();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Insert(tree, pages, "k" + std::to_string(i), "v").ok()) << i;
  }
  EXPECT_GE(tree.splits(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*Lookup(tree, "k" + std::to_string(i)), "v") << i;
  }
  // The root pointer moved to an internal page.
  auto root_ptr = pages.page(kMetaBlock).entries.at(kMetaRootKey);
  const storage::Page& root = pages.page(*DecodeU64Value(root_ptr));
  EXPECT_EQ(root.type, storage::PageType::kInternal);
}

TEST(BTree, DeepTreeManyKeys) {
  FakePages pages(4);  // tiny pages force a deep tree
  BTree tree = pages.MakeTree();
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i * 7919 % 100000);
    ASSERT_TRUE(Insert(tree, pages, key, std::to_string(i)).ok()) << i;
  }
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i * 7919 % 100000);
    ASSERT_EQ(*Lookup(tree, key), std::to_string(i)) << key;
  }
  EXPECT_GT(tree.splits(), 50u);
}

TEST(BTree, ScanFollowsLeafLinks) {
  FakePages pages(4);
  BTree tree = pages.MakeTree();
  for (int i = 0; i < 40; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(Insert(tree, pages, key, std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  tree.ScanEntries("k005", "k025", 100, [&](auto r) {
    ASSERT_TRUE(r.ok());
    rows = std::move(*r);
  });
  ASSERT_EQ(rows.size(), 21u);
  EXPECT_EQ(rows.front().first, "k005");
  EXPECT_EQ(rows.back().first, "k025");
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first) << "scan must be ordered";
  }
}

TEST(BTree, ScanHonorsLimit) {
  FakePages pages(4);
  BTree tree = pages.MakeTree();
  for (int i = 0; i < 30; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(Insert(tree, pages, key, "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  tree.ScanEntries("k000", "k999", 7, [&](auto r) {
    ASSERT_TRUE(r.ok());
    rows = std::move(*r);
  });
  EXPECT_EQ(rows.size(), 7u);
}

TEST(BTree, PlanKeepsSplitInOneMtr) {
  FakePages pages(4);
  BTree tree = pages.MakeTree();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Insert(tree, pages, "k" + std::to_string(i), "v").ok());
  }
  // The 5th insert must split: its plan touches the leaf, the new right
  // sibling, the meta allocation cursor, and the (new) root — all staged
  // ops of ONE MTR, which is the §3.2 atomicity requirement.
  auto path = tree.FindPathSync("k4");
  ASSERT_TRUE(path.ok());
  auto plan = tree.PlanInsert(*path, "k4", "v", pages.Allocator());
  ASSERT_TRUE(plan.ok());
  std::set<BlockId> touched;
  for (const auto& staged : *plan) touched.insert(staged.block);
  EXPECT_GE(touched.size(), 3u) << "split spans multiple blocks";
  pages.ApplyAll(*plan);
  EXPECT_EQ(*Lookup(tree, "k4"), "v");
}

TEST(BTree, VolumeFullSurfacesOutOfRange) {
  FakePages pages(4);
  BTree tree = pages.MakeTree();
  // Capacity 3: bootstrap consumed block 1; the first split needs a new
  // block and one more for root growth — cap below that.
  Status last = Status::OK();
  for (int i = 0; i < 10 && last.ok(); ++i) {
    auto path = tree.FindPathSync("k" + std::to_string(i));
    ASSERT_TRUE(path.ok());
    auto plan = tree.PlanInsert(*path, "k" + std::to_string(i), "v",
                                pages.Allocator(/*capacity=*/2));
    if (!plan.ok()) {
      last = plan.status();
      break;
    }
    pages.ApplyAll(*plan);
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfRange);
}

TEST(BTree, StatusAndDataNamespacesDoNotCollide) {
  FakePages pages(8);
  BTree tree = pages.MakeTree();
  ASSERT_TRUE(Insert(tree, pages, DataKey("42"), "user-value").ok());
  ASSERT_TRUE(Insert(tree, pages, StatusKey(42), EncodeU64Value(7)).ok());
  EXPECT_EQ(*Lookup(tree, DataKey("42")), "user-value");
  EXPECT_EQ(*DecodeU64Value(*Lookup(tree, StatusKey(42))), 7u);
}

TEST(BTree, WithPathFaultsInTheKeysOwnPath) {
  FakePages pages(4);
  BTree tree = pages.MakeTree();
  auto key_of = [](int i) {
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", i);
    return std::string(key);
  };
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(Insert(tree, pages, key_of(i), "v").ok()) << i;
  }
  ASSERT_GT(tree.splits(), 4u);
  pages.DropCache();
  // The key comes back with a path to its own leaf (the rightmost, not
  // the leftmost), each page fetched once.
  const std::string wanted = key_of(63);
  std::string delivered;
  Result<std::vector<BlockId>> path = Status::Internal("no callback");
  tree.WithPath(wanted, [&](std::string key, Result<std::vector<BlockId>> p) {
    delivered = std::move(key);
    path = std::move(p);
  });
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(delivered, wanted);
  EXPECT_TRUE(pages.page(path->back()).entries.contains(wanted));
  EXPECT_EQ(pages.fetches(), path->size() + 1) << "meta, then each level";
  EXPECT_EQ(*Lookup(tree, wanted), "v");
}

TEST(BTree, FindPathSyncAbortsOnMiss) {
  FakePages pages(8);
  BTree tree = pages.MakeTree();
  // A tree whose cache lookup always misses must abort, not crash.
  BTree blind(
      BTreeOptions{}, [](BlockId, std::function<void(Result<storage::Page*>)> cb) {
        cb(Status::NotFound("x"));
      },
      [](BlockId) -> storage::Page* { return nullptr; },
      [](BlockId) -> const storage::Page* { return nullptr; });
  EXPECT_TRUE(blind.FindPathSync("k").status().IsAborted());
}

}  // namespace
}  // namespace aurora::engine
