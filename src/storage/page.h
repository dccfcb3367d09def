// Data block (page) model and redo page operations.
//
// §2.2: "No data blocks are written from the database instance... redo log
// application code is run within the storage nodes, materializing blocks in
// background or on-demand to satisfy a read request." This header defines
// the page structure shared by the storage nodes (materialization), the
// writer's buffer cache, and replicas (cache application) — all three apply
// the SAME redo payloads through ApplyRedoPayload, which is what makes log
// application idempotent and location-independent.
//
// Pages are B+-tree nodes: sorted key→value entries plus header fields.
// Values are opaque to storage; the transaction layer encodes row versions
// (txn id + undo pointer) inside them. Neither key nor value is copied out
// of the redo record that wrote it: the entry holds where both lie in that
// record's immutable, refcounted payload and co-owns the buffer, so the
// six segments, the writer cache and every replica cache that apply one
// record all share its bytes, and applying an insert allocates nothing.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <iterator>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/log/record.h"

namespace aurora::storage {

struct Page;
Status ApplyRedoPayload(Page* page, const log::Payload& payload, Lsn lsn);

/// Sorted key→value entry set whose keys and values alias redo payloads.
///
/// The storage nodes retain several materialized versions of each block
/// (MVCC reads, §3.1), and every holder of a block applies the same redo.
/// Each entry records where its key and value lie inside the payload of
/// the record that wrote them, plus that payload's handle, so the entry
/// keeps those bytes alive after the record leaves the hot log: 24 B per
/// entry in one sorted vector. Applying an insert stores offsets and one
/// handle and copies no bytes; copying a version copies offsets and bumps
/// refcounts. Key, value and owner always change together: an entry whose
/// owner is replaced must not keep offsets into the old buffer. The
/// map-like read interface (find/at/contains/lower_bound/upper_bound/
/// ordered iteration over (key, value) pairs) keeps the B-tree and the
/// buffer cache representation-agnostic; mutation happens only through
/// ApplyRedoPayload.
class PageEntries {
  struct Entry;

 public:
  /// What an entry reads as: `it->first`, `it->second`, or
  /// `const auto& [key, value]`. Both views point into the owning payload.
  using value_type = std::pair<std::string_view, std::string_view>;

  /// Bidirectional iterator yielding (key, value) views by value.
  class const_iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = PageEntries::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = value_type;
    /// `it->first` reads through a pair held by this proxy.
    struct pointer {
      value_type pair;
      const value_type* operator->() const { return &pair; }
    };

    const_iterator() = default;
    value_type operator*() const { return it_->Pair(); }
    pointer operator->() const { return pointer{it_->Pair()}; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(it_++); }
    const_iterator& operator--() {
      --it_;
      return *this;
    }
    const_iterator operator--(int) { return const_iterator(it_--); }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class PageEntries;
    explicit const_iterator(std::vector<Entry>::const_iterator it)
        : it_(it) {}

    std::vector<Entry>::const_iterator it_;
  };

  const_iterator begin() const { return const_iterator(entries_.begin()); }
  const_iterator end() const { return const_iterator(entries_.end()); }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  const_iterator lower_bound(std::string_view key) const {
    return const_iterator(entries_.begin() + LowerBoundIndex(key));
  }
  const_iterator upper_bound(std::string_view key) const {
    return const_iterator(std::upper_bound(
        entries_.begin(), entries_.end(), key,
        [](std::string_view k, const Entry& e) { return k < e.Key(); }));
  }
  const_iterator find(std::string_view key) const {
    const size_t i = LowerBoundIndex(key);
    if (i < entries_.size() && entries_[i].Key() == key) {
      return const_iterator(entries_.begin() + i);
    }
    return end();
  }
  bool contains(std::string_view key) const { return find(key) != end(); }
  std::string_view at(std::string_view key) const {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("PageEntries::at");
    return it->second;
  }

  /// Content equality: same keys and value bytes, wherever they live.
  bool operator==(const PageEntries& other) const {
    return std::equal(entries_.begin(), entries_.end(),
                      other.entries_.begin(), other.entries_.end(),
                      [](const Entry& a, const Entry& b) {
                        return a.Key() == b.Key() && a.Value() == b.Value();
                      });
  }

 private:
  friend Status ApplyRedoPayload(Page* page, const log::Payload& payload,
                                 Lsn lsn);

  /// The owning payload's handle and where the key and value lie in its
  /// bytes. Offsets, not views: two 16-byte views would make an entry
  /// 40 B, and the payload's bytes sit at a fixed place in its block.
  struct Entry {
    Entry(std::string_view key, std::string_view value,
          const log::Payload& payload)
        : owner(payload),
          key_offset(Offset(key, payload)),
          key_size(static_cast<uint32_t>(key.size())),
          value_offset(Offset(value, payload)),
          value_size(static_cast<uint32_t>(value.size())) {}

    std::string_view Key() const {
      return std::string_view(owner.data() + key_offset, key_size);
    }
    std::string_view Value() const {
      return std::string_view(owner.data() + value_offset, value_size);
    }
    value_type Pair() const { return {Key(), Value()}; }

    static uint32_t Offset(std::string_view bytes,
                           const log::Payload& payload) {
      return static_cast<uint32_t>(bytes.data() - payload.data());
    }

    log::Payload owner;  // the buffer both ranges lie in
    uint32_t key_offset;
    uint32_t key_size;
    uint32_t value_offset;
    uint32_t value_size;
  };

  /// Inserts or replaces one entry; `key` and `value` lie inside
  /// `owner`'s bytes. A replaced entry re-points both ranges and its
  /// owner.
  void Upsert(std::string_view key, std::string_view value,
              const log::Payload& owner) {
    const size_t i = LowerBoundIndex(key);
    if (i < entries_.size() && entries_[i].Key() == key) {
      entries_[i] = Entry(key, value, owner);
      return;
    }
    entries_.insert(entries_.begin() + i, Entry(key, value, owner));
  }

  /// Removes one entry (no-op if absent; idempotent application).
  void Erase(std::string_view key) {
    const size_t i = LowerBoundIndex(key);
    if (i < entries_.size() && entries_[i].Key() == key) {
      entries_.erase(entries_.begin() + i);
    }
  }

  /// Removes all entries with key >= pivot (split: donor side).
  void TruncateFrom(std::string_view pivot) {
    entries_.erase(entries_.begin() + LowerBoundIndex(pivot), entries_.end());
  }

  void clear() { entries_.clear(); }

  size_t LowerBoundIndex(std::string_view key) const {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, std::string_view k) { return e.Key() < k; });
    return static_cast<size_t>(it - entries_.begin());
  }

  std::vector<Entry> entries_;

  static_assert(sizeof(Entry) == 24, "page entry grew");
};

/// What role a page plays in the access method.
enum class PageType : uint8_t {
  kFree = 0,
  kLeaf = 1,
  kInternal = 2,
  kUndo = 3,
  kMeta = 4,
};

/// One materialized data block version. `page_lsn` is the LSN of the last
/// redo record applied; the block chain guarantees records apply in order.
struct Page {
  BlockId id = kInvalidBlock;
  Lsn page_lsn = kInvalidLsn;
  PageType type = PageType::kFree;
  uint16_t level = 0;              // B-tree level (0 = leaf)
  BlockId next = kInvalidBlock;    // right-sibling link for leaf scans
  BlockId prev = kInvalidBlock;    // left-sibling link
  PageEntries entries;

  bool operator==(const Page&) const = default;

  uint64_t SizeBytes() const;
  std::string ToString() const;
};

/// The kinds of physical page changes carried in redo payloads.
enum class PageOpType : uint8_t {
  /// (Re)formats the page with a type/level; clears entries.
  kFormat = 0,
  /// Upserts one entry.
  kInsert = 1,
  /// Removes one entry (no-op if absent; idempotent application).
  kErase = 2,
  /// Sets the sibling links.
  kSetLinks = 3,
  /// Removes all entries with key >= pivot (split: donor side).
  kTruncateFrom = 4,
};

/// A single physical operation on one page, as the writer builds it.
/// Encoded into RedoRecord::payload; every holder applies the payload.
struct PageOp {
  PageOpType type = PageOpType::kInsert;
  PageType page_type = PageType::kLeaf;  // kFormat
  uint16_t level = 0;                    // kFormat
  std::string key;                       // kInsert/kErase/kTruncateFrom
  std::string value;                     // kInsert
  BlockId next = kInvalidBlock;          // kSetLinks
  BlockId prev = kInvalidBlock;          // kSetLinks
};

/// A decoded page op: `key` and `value` view the payload it came from and
/// are valid while that payload lives.
struct PageOpView {
  PageOpType type = PageOpType::kInsert;
  PageType page_type = PageType::kLeaf;
  uint16_t level = 0;
  std::string_view key;
  std::string_view value;
  BlockId next = kInvalidBlock;
  BlockId prev = kInvalidBlock;
};

/// Serializes a PageOp straight into a redo payload of exactly its size.
log::Payload EncodePageOp(const PageOp& op);

/// Decodes a redo payload without copying or allocating; Corruption on
/// malformed input.
Result<PageOpView> DecodePageOp(std::string_view payload);

/// Decodes `payload` and applies it to `page`, stamping `lsn` as the new
/// page_lsn. An inserted key and value stay in `payload`'s bytes, which
/// the page co-owns. The caller is responsible for ordering (prev_lsn_block
/// chain); application itself is deterministic and total.
Status ApplyRedoPayload(Page* page, const log::Payload& payload, Lsn lsn);

}  // namespace aurora::storage
