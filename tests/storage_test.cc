// Unit tests for the storage service: page ops, segment stores (SCL,
// coalescing, on-demand materialization, MVCC version retention/GC,
// truncation, scrub, hydration), the disk model, the object store, and
// storage::Call, the one request/reply path to a storage node.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "src/common/random.h"
#include "src/log/record.h"
#include "src/quorum/membership.h"
#include "src/sim/network.h"
#include "src/sim/rpc.h"
#include "src/sim/simulator.h"
#include "src/storage/call.h"
#include "src/storage/disk.h"
#include "src/storage/object_store.h"
#include "src/storage/page.h"
#include "src/storage/segment_store.h"
#include "src/storage/storage_node.h"

namespace aurora::storage {
namespace {

quorum::PgConfig TestConfig() {
  std::vector<quorum::SegmentInfo> members;
  for (SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<NodeId>(100 + id),
                       static_cast<AzId>(id / 2), true});
  }
  return quorum::PgConfig::Create(0, quorum::QuorumModel::kUniform46,
                                  members);
}

constexpr ArchiveKey kTestArchiveKey = MakeArchiveKey(/*volume=*/2, /*pg=*/0);

SegmentStore MakeStore(bool is_full = true, bool hydrated = true) {
  quorum::SegmentInfo info{0, 100, 0, is_full};
  return SegmentStore(info, 0, TestConfig(), /*volume_epoch=*/1, hydrated);
}

log::SealedRecord DataRecord(Lsn lsn, Lsn prev_seg, BlockId block,
                             Lsn prev_block, const PageOp& op) {
  log::RedoRecord rec;
  rec.lsn = lsn;
  rec.prev_lsn_volume = lsn - 1;
  rec.prev_lsn_segment = prev_seg;
  rec.prev_lsn_block = prev_block;
  rec.pg = 0;
  rec.block = block;
  rec.txn = 1;
  rec.payload = EncodePageOp(op);
  return log::Seal(std::move(rec));
}

PageOp FormatOp(PageType type = PageType::kLeaf) {
  PageOp op;
  op.type = PageOpType::kFormat;
  op.page_type = type;
  return op;
}

PageOp InsertOp(std::string key, std::string value) {
  PageOp op;
  op.type = PageOpType::kInsert;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

// ---------------------------------------------------------------------- //
// Page ops

// The one apply path: encode the op into a payload and apply that.
Status Apply(Page* page, const PageOp& op, Lsn lsn) {
  return ApplyRedoPayload(page, EncodePageOp(op), lsn);
}

TEST(PageOps, CodecRoundTrip) {
  PageOp op;
  op.type = PageOpType::kSetLinks;
  op.page_type = PageType::kInternal;
  op.level = 3;
  op.key = "piv";
  op.value = std::string("\x00\x01", 2);
  op.next = 42;
  op.prev = 41;
  const log::Payload payload = EncodePageOp(op);
  EXPECT_EQ(payload.use_count(), 1u) << "one fresh block, exactly sized";
  const std::string_view encoded = payload.view();
  auto decoded = DecodePageOp(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, op.type);
  EXPECT_EQ(decoded->page_type, op.page_type);
  EXPECT_EQ(decoded->level, op.level);
  EXPECT_EQ(decoded->key, op.key);
  EXPECT_EQ(decoded->value, op.value);
  EXPECT_EQ(decoded->next, op.next);
  EXPECT_EQ(decoded->prev, op.prev);
  // The decoded key and value are views into the encoded bytes.
  const auto inside = [&](std::string_view v) {
    return v.data() >= encoded.data() &&
           v.data() + v.size() <= encoded.data() + encoded.size();
  };
  EXPECT_TRUE(inside(decoded->key));
  EXPECT_TRUE(inside(decoded->value));
}

TEST(PageOps, DecodeRejectsGarbage) {
  EXPECT_TRUE(DecodePageOp("").status().IsCorruption());
  EXPECT_TRUE(DecodePageOp("zz").status().IsCorruption());
  std::string bad(EncodePageOp(InsertOp("k", "v")).view());
  bad.resize(bad.size() - 1);
  EXPECT_TRUE(DecodePageOp(bad).status().IsCorruption());
  Page page;
  EXPECT_TRUE(ApplyRedoPayload(&page, bad, 1).IsCorruption());
  EXPECT_EQ(page.page_lsn, kInvalidLsn) << "a bad payload leaves the page";
}

TEST(PageOps, ApplySequence) {
  Page page;
  page.id = 9;
  ASSERT_TRUE(Apply(&page, FormatOp(), 1).ok());
  EXPECT_EQ(page.type, PageType::kLeaf);
  ASSERT_TRUE(Apply(&page, InsertOp("b", "2"), 2).ok());
  ASSERT_TRUE(Apply(&page, InsertOp("a", "1"), 3).ok());
  EXPECT_EQ(page.entries.size(), 2u);
  EXPECT_EQ(page.page_lsn, 3u);

  PageOp erase;
  erase.type = PageOpType::kErase;
  erase.key = "a";
  ASSERT_TRUE(Apply(&page, erase, 4).ok());
  EXPECT_FALSE(page.entries.contains("a"));

  PageOp truncate;
  truncate.type = PageOpType::kTruncateFrom;
  truncate.key = "b";
  ASSERT_TRUE(Apply(&page, truncate, 5).ok());
  EXPECT_TRUE(page.entries.empty());
}

TEST(PageOps, CopiedVersionsShareUntouchedEntries) {
  // Coalescing and on-demand reads copy page versions; a copy must share
  // every unmodified value's bytes with the version it came from.
  Page v1;
  ASSERT_TRUE(Apply(&v1, FormatOp(), 1).ok());
  ASSERT_TRUE(Apply(&v1, InsertOp("a", "1"), 2).ok());
  ASSERT_TRUE(Apply(&v1, InsertOp("b", "2"), 3).ok());
  ASSERT_TRUE(Apply(&v1, InsertOp("c", "3"), 4).ok());

  Page v2 = v1;
  ASSERT_TRUE(Apply(&v2, InsertOp("b", "new"), 5).ok());

  // Untouched keys view the same bytes, the overwritten key views the new
  // record's, and the old version is unperturbed.
  EXPECT_EQ(v1.entries.find("a")->second.data(),
            v2.entries.find("a")->second.data());
  EXPECT_EQ(v1.entries.find("c")->second.data(),
            v2.entries.find("c")->second.data());
  EXPECT_NE(v1.entries.find("b")->second.data(),
            v2.entries.find("b")->second.data());
  EXPECT_EQ(v1.entries.at("b"), "2");
  EXPECT_EQ(v2.entries.at("b"), "new");

  // Content equality still behaves like a value type.
  Page v3 = v2;
  EXPECT_TRUE(v3 == v2);
  EXPECT_FALSE(v1 == v2);
  ASSERT_TRUE(Apply(&v3, InsertOp("d", "4"), 6).ok());
  EXPECT_FALSE(v3 == v2);
  EXPECT_EQ(v2.entries.size(), 3u);
}

// ---------------------------------------------------------------------- //
// SegmentStore: write path + SCL

TEST(SegmentStore, AppendAdvancesScl) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp())},
                           RedoSource::kWrite).ok());
  ASSERT_TRUE(store.Ingest({DataRecord(2, 1, 7, 1, InsertOp("k", "v"))},
                           RedoSource::kWrite).ok());
  EXPECT_EQ(store.scl(), 2u);
  EXPECT_EQ(store.stats().records_received, 2u);
}

TEST(SegmentStore, DuplicateAppendCounted) {
  auto store = MakeStore();
  auto rec = DataRecord(1, 0, 7, 0, FormatOp());
  ASSERT_TRUE(store.Ingest({rec}, RedoSource::kWrite).ok());
  ASSERT_TRUE(store.Ingest({rec}, RedoSource::kWrite).ok());
  EXPECT_EQ(store.stats().records_duplicate, 1u);
}

TEST(SegmentStore, WrongPgRejected) {
  auto store = MakeStore();
  log::RedoRecord rec = *DataRecord(1, 0, 7, 0, FormatOp());
  rec.pg = 3;
  EXPECT_FALSE(store.Ingest({log::Seal(rec)}, RedoSource::kWrite).ok());
}

TEST(SegmentStore, EpochChecks) {
  auto store = MakeStore();
  EXPECT_TRUE(store.CheckEpochs({1, 1}).ok());
  EXPECT_TRUE(store.CheckEpochs({0, 1}).IsStaleEpoch());
  // Newer volume epoch teaches the node.
  EXPECT_TRUE(store.CheckEpochs({5, 1}).ok());
  EXPECT_EQ(store.volume_epoch(), 5u);
  EXPECT_TRUE(store.CheckEpochs({4, 1}).IsStaleEpoch());
  EXPECT_TRUE(store.CheckEpochs({5, 0}).IsStaleEpoch());
}

// ---------------------------------------------------------------------- //
// SegmentStore: coalesce + reads

TEST(SegmentStore, CoalesceMaterializesVersions) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1")),
                            DataRecord(3, 2, 7, 2, InsertOp("b", "2"))},
                           RedoSource::kWrite)
                  .ok());
  EXPECT_EQ(store.CoalesceStep(100), 0u) << "no floor: redo stays pending";
  store.ObservePgmrpl(2);
  EXPECT_EQ(store.CoalesceStep(100), 2u) << "only records <= PGMRPL fold";
  EXPECT_EQ(store.VersionCount(7), 1u);
  store.ObservePgmrpl(3);
  EXPECT_EQ(store.CoalesceStep(100), 1u);
  // In place: one version per block below the floor, not one per record.
  EXPECT_EQ(store.VersionCount(7), 1u);
  EXPECT_EQ(store.stats().records_coalesced, 3u);
  auto page = store.ReadPage(7, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.size(), 2u);
}

TEST(SegmentStore, OnDemandMaterializationWithoutCoalesce) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1"))},
                           RedoSource::kWrite)
                  .ok());
  // No CoalesceStep: the read materializes on demand (§2.2).
  auto page = store.ReadPage(7, 2);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->page_lsn, 2u);
  EXPECT_EQ(page->entries.at("a"), "1");
}

TEST(SegmentStore, ReadsAtOlderLsnSeeOlderVersion) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("k", "v1")),
                            DataRecord(3, 2, 7, 2, InsertOp("k", "v2"))},
                           RedoSource::kWrite)
                  .ok());
  store.CoalesceStep(100);
  auto old_page = store.ReadPage(7, 2);
  ASSERT_TRUE(old_page.ok());
  EXPECT_EQ(old_page->entries.at("k"), "v1");
  auto new_page = store.ReadPage(7, 3);
  ASSERT_TRUE(new_page.ok());
  EXPECT_EQ(new_page->entries.at("k"), "v2");
}

TEST(SegmentStore, ReadAboveSclRejected) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp())},
                           RedoSource::kWrite).ok());
  EXPECT_EQ(store.ReadPage(7, 5).status().code(), StatusCode::kUnavailable);
}

TEST(SegmentStore, ReadBelowPgmrplRejected) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1")),
                            DataRecord(3, 2, 9, 0, FormatOp())},
                           RedoSource::kWrite)
                  .ok());
  store.ObservePgmrpl(3);
  // Until coalescing folds it, the history below the floor is intact.
  auto unfolded = store.ReadPage(7, 1);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status().ToString();
  EXPECT_TRUE(unfolded->entries.empty());
  store.CoalesceStep(100);
  // Block 7's state at 1 was folded into its version at 2: refused.
  EXPECT_EQ(store.ReadPage(7, 1).status().code(), StatusCode::kOutOfRange);
  // Below the floor, but no record of block 7 lies in (2, 3]: served.
  auto below = store.ReadPage(7, 2);
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  EXPECT_EQ(below->entries.at("a"), "1");
  // Block 9 was folded at 3; a read under it is refused, not NotFound.
  EXPECT_EQ(store.ReadPage(9, 2).status().code(), StatusCode::kOutOfRange);
  // A floor a reader advertised refuses every read below it (§3.4).
  store.ObserveReadFloor(3);
  EXPECT_EQ(store.ReadPage(7, 2).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(store.ReadPage(7, 3).ok());
}

TEST(SegmentStore, TailSegmentServesNoPages) {
  auto store = MakeStore(/*is_full=*/false);
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp())},
                           RedoSource::kWrite).ok());
  EXPECT_EQ(store.CoalesceStep(100), 0u);
  EXPECT_EQ(store.ReadPage(7, 1).status().code(), StatusCode::kNotSupported);
  EXPECT_EQ(store.scl(), 1u) << "tail still tracks the log chain";
}

// ---------------------------------------------------------------------- //
// SegmentStore: GC, backup, scrub

TEST(SegmentStore, GcRequiresBackupAndCoalesce) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1"))},
                           RedoSource::kWrite)
                  .ok());
  EXPECT_EQ(store.GarbageCollect(), 0u) << "nothing backed up yet";
  store.MarkBackedUp(2);
  store.CoalesceStep(100);
  EXPECT_EQ(store.GarbageCollect(), 0u)
      << "backed up but above the floor: still pending, not coalesced";
  EXPECT_EQ(store.hot_log().RecordCount(), 2u);
  store.ObservePgmrpl(1);
  store.CoalesceStep(100);
  EXPECT_EQ(store.GarbageCollect(), 1u) << "only the folded prefix evicts";
  store.ObservePgmrpl(2);
  store.CoalesceStep(100);
  EXPECT_EQ(store.GarbageCollect(), 1u);
  EXPECT_EQ(store.hot_log().RecordCount(), 0u);
  // Reads still work from materialized versions.
  EXPECT_TRUE(store.ReadPage(7, 2).ok());
}

TEST(SegmentStore, OverwrittenEntryOutlivesItsOldRecord) {
  // An entry's key and value both view the payload of the record that
  // last wrote them. Overwrite a key, then evict the first record from the
  // hot log and fold it away: no page may still point into its buffer,
  // and the entry reads back from the overwriting record's bytes. (Under
  // AddressSanitizer a stale key or value view is a use-after-free.)
  auto store = MakeStore();
  const std::string key = "a key too long for any small-string buffer";
  log::SealedRecord first = DataRecord(2, 1, 7, 1, InsertOp(key, "old value"));
  log::SealedRecord second = DataRecord(3, 2, 7, 2, InsertOp(key, "new value"));
  log::Payload old_payload = first->payload;
  const log::Payload new_payload = second->payload;
  ASSERT_TRUE(
      store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()), first, second},
                   RedoSource::kWrite).ok());
  first = log::SealedRecord();
  second = log::SealedRecord();

  store.MarkBackedUp(3);
  store.ObservePgmrpl(3);
  EXPECT_EQ(store.CoalesceStep(100), 3u);
  store.GarbageCollect();
  EXPECT_EQ(store.hot_log().RecordCount(), 0u) << "not evicted";
  EXPECT_EQ(store.OldestPendingLsn(), kInvalidLsn) << "not folded";
  EXPECT_EQ(store.VersionCount(7), 1u);
  EXPECT_EQ(old_payload.use_count(), 1u)
      << "the folded version still co-owns the overwritten record";
  old_payload = log::Payload();  // last owner: the old buffer is freed

  auto page = store.ReadPage(7, 3);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  auto it = page->entries.find(key);
  ASSERT_NE(it, page->entries.end());
  EXPECT_EQ(it->first, key);
  EXPECT_EQ(it->second, "new value");
  const auto inside_new = [&](std::string_view v) {
    return v.data() >= new_payload.data() &&
           v.data() + v.size() <= new_payload.data() + new_payload.size();
  };
  EXPECT_TRUE(inside_new(it->first)) << "key still views the old record";
  EXPECT_TRUE(inside_new(it->second)) << "value still views the old record";
}

TEST(SegmentStore, VersionGcKeepsNewestAtOrBelowPgmrpl) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("k", "v1")),
                            DataRecord(3, 2, 7, 2, InsertOp("k", "v2")),
                            DataRecord(4, 3, 7, 3, InsertOp("k", "v3"))},
                           RedoSource::kWrite)
                  .ok());
  // On-demand reads keep the versions they materialize.
  ASSERT_TRUE(store.ReadPage(7, 2).ok());
  ASSERT_TRUE(store.ReadPage(7, 4).ok());
  EXPECT_EQ(store.VersionCount(7), 2u);
  store.ObservePgmrpl(3);
  store.CoalesceStep(100);
  store.GarbageCollect();
  // Records 1-3 fold in place into one version at 3 (the on-demand
  // version at 2 is re-keyed, not copied); version 4 above the floor
  // stays.
  EXPECT_EQ(store.VersionCount(7), 2u);
  auto page = store.ReadPage(7, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.at("k"), "v2");
  EXPECT_EQ(store.ReadPage(7, 2).status().code(), StatusCode::kOutOfRange);
  // Record 4 is already in the on-demand version: folding just drops the
  // version below it.
  store.ObservePgmrpl(4);
  EXPECT_EQ(store.CoalesceStep(100), 0u);
  EXPECT_EQ(store.VersionCount(7), 1u);
  auto newest = store.ReadPage(7, 4);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->entries.at("k"), "v3");
}

// Differential check of in-place coalescing. Random record streams over
// several blocks (format, insert, erase and truncate ops) arrive out of
// order through appends and gossip while the floor advances at random.
// Along the way a crash recovery annuls a range of the log (§2.4), scrub
// drops corrupted records that gossip later re-fills, and a replacement
// segment hydrated from a donor takes over (§4.2). Every served
// ReadPage(block, r) must equal a from-scratch apply of the block's
// surviving records <= r. A refusal is allowed only where the block's
// history at r is folded away: the floor has passed one of its records
// above r. GC must never evict a record that has not been folded.
TEST(SegmentStore, InPlaceCoalesceMatchesFromScratchApply) {
  constexpr uint64_t kBlocks = 4;
  constexpr Lsn kRecords = 80;
  uint64_t served = 0;
  uint64_t refused = 0;
  uint64_t scrubbed = 0;
  uint64_t hydrations = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Recovery annuls [annul_lo, annul_hi]: the old timeline ends at
    // annul_hi and the new one chains past the range on both the segment
    // and the block chains.
    const Lsn annul_lo = 30 + rng.NextBounded(20);
    const Lsn annul_hi = annul_lo + rng.NextBounded(5);
    auto annulled = [&](Lsn lsn) { return lsn >= annul_lo && lsn <= annul_hi; };
    std::vector<log::SealedRecord> stream;
    std::map<BlockId, Lsn> block_tail;      // surviving chain
    std::map<BlockId, Lsn> old_block_tail;  // old timeline's chain
    for (Lsn lsn = 1; lsn <= kRecords; ++lsn) {
      const BlockId block = 10 + rng.NextBounded(kBlocks);
      const std::string key(1, static_cast<char>('a' + rng.NextBounded(6)));
      PageOp op = InsertOp(key, std::to_string(lsn));
      switch (rng.NextBounded(8)) {
        case 0:
          op = FormatOp();
          break;
        case 1:
          op.type = PageOpType::kErase;
          break;
        case 2:
          op.type = PageOpType::kTruncateFrom;
          break;
        default:
          break;
      }
      if (annulled(lsn)) {
        stream.push_back(
            DataRecord(lsn, lsn - 1, block, old_block_tail[block], op));
        old_block_tail[block] = lsn;
        continue;
      }
      const Lsn prev_seg = lsn == annul_hi + 1 ? annul_lo - 1 : lsn - 1;
      stream.push_back(DataRecord(lsn, prev_seg, block, block_tail[block], op));
      block_tail[block] = lsn;
      old_block_tail[block] = lsn;
    }
    bool truncated = false;
    auto surviving = [&](const log::SealedRecord& rec) {
      return !truncated || !annulled(rec->lsn);
    };
    auto from_scratch = [&](BlockId block, Lsn r) -> std::optional<Page> {
      std::optional<Page> page;
      for (const auto& record : stream) {
        if (record->lsn > r) break;
        if (record->block != block || !surviving(record)) continue;
        if (!page) {
          page.emplace();
          page->id = block;
        }
        EXPECT_TRUE(
            ApplyRedoPayload(&*page, record->payload, record->lsn).ok());
      }
      return page;
    };
    auto folded_away = [&](BlockId block, Lsn r, Lsn floor) {
      return std::any_of(stream.begin(), stream.end(), [&](const auto& rec) {
        return rec->block == block && surviving(rec) && rec->lsn > r &&
               rec->lsn <= floor;
      });
    };

    // Delivery order: the old timeline, then (after the truncation) the
    // new one; each record moves up to 5 places from its LSN slot.
    auto shuffled = [&](std::vector<log::SealedRecord> records) {
      for (size_t i = records.size(); i > 1; --i) {
        const size_t lo = i > 6 ? i - 6 : 0;
        std::swap(records[i - 1], records[lo + rng.NextBounded(i - lo)]);
      }
      return records;
    };
    std::vector<log::SealedRecord> delivery =
        shuffled({stream.begin(), stream.begin() + annul_hi});
    const size_t truncate_at = delivery.size();
    for (const auto& rec :
         shuffled({stream.begin() + annul_hi, stream.end()})) {
      delivery.push_back(rec);
    }
    auto store = MakeStore();
    size_t delivered = 0;
    // The floor is min(SCL, PGMRPL), with the highest SCL so far: scrub
    // and truncation can rewind SCL, but versions folded or materialized
    // below an earlier SCL stay.
    Lsn scl_high = kInvalidLsn;
    Lsn floor = kInvalidLsn;
    auto note_floor = [&]() {
      scl_high = std::max(scl_high, store.scl());
      floor = std::min(scl_high, store.pgmrpl());
    };
    auto check = [&](BlockId block, Lsn r) {
      note_floor();
      auto got = store.ReadPage(block, r);
      const auto want = from_scratch(block, r);
      if (got.ok()) {
        served++;
        ASSERT_TRUE(want.has_value()) << "block " << block << " at " << r;
        EXPECT_TRUE(*got == *want) << "block " << block << " at " << r
                                   << ": " << got->ToString() << " vs "
                                   << want->ToString();
      } else if (got.status().code() == StatusCode::kOutOfRange) {
        refused++;
        EXPECT_TRUE(r < floor && folded_away(block, r, floor))
            << "block " << block << " at " << r << " refused, floor "
            << floor;
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
            << got.status().ToString();
        EXPECT_FALSE(want.has_value()) << "block " << block << " at " << r;
      }
    };
    auto collect = [&]() {
      store.GarbageCollect();
      const Lsn oldest = store.OldestPendingLsn();
      if (oldest != kInvalidLsn) {
        ASSERT_LT(store.hot_log().gc_floor(), oldest)
            << "GC evicted a record that was never folded";
      }
    };
    // Recovery's volume-epoch bump with the annulled range; only once the
    // whole old timeline has been handed out.
    VolumeEpochUpdateRequest truncation;
    truncation.new_epoch = 2;
    truncation.truncation = log::TruncationRange{annul_lo, annul_hi};
    auto truncate = [&]() {
      ASSERT_EQ(delivered, truncate_at);
      ASSERT_TRUE(store.UpdateVolumeEpoch(truncation).ok());
      truncated = true;
    };
    // Before the truncation no reader's floor reaches the annulled range
    // (it lies above VDL), so nothing in it folds.
    auto raise_floor = [&](Lsn pgmrpl) {
      store.ObservePgmrpl(truncated ? pgmrpl : std::min(pgmrpl, annul_lo - 1));
    };
    for (int step = 0; step < 300; ++step) {
      note_floor();
      switch (rng.NextBounded(9)) {
        case 0:
        case 1: {
          const size_t limit = truncated ? delivery.size() : truncate_at;
          std::vector<log::SealedRecord> batch;
          for (uint64_t n = 1 + rng.NextBounded(4); n > 0 && delivered < limit;
               --n) {
            batch.push_back(delivery[delivered++]);
          }
          // Gossip may also re-deliver a record the segment already has
          // (or one that scrub dropped, or a late annulled one).
          if (delivered > 0 && rng.Bernoulli(0.3)) {
            batch.push_back(delivery[rng.NextBounded(delivered)]);
          }
          ASSERT_TRUE(store
                          .Ingest(batch, rng.Bernoulli(0.5)
                                             ? RedoSource::kWrite
                                             : RedoSource::kPeer)
                          .ok());
          break;
        }
        case 2:
          raise_floor(store.pgmrpl() + rng.NextBounded(8));
          break;
        case 3:
          store.CoalesceStep(1 + rng.NextBounded(6));
          break;
        case 4:
          store.MarkBackedUp(rng.NextBounded(store.scl() + 1));
          collect();
          break;
        case 5:
          if (!truncated && delivered == truncate_at) truncate();
          break;
        case 6: {
          // Scrub finds a record damaged in place and drops it.
          if (delivered == 0) break;
          const Lsn lsn = delivery[rng.NextBounded(delivered)]->lsn;
          const bool corrupted = store.CorruptRecordForTest(lsn);
          EXPECT_EQ(store.Scrub(), corrupted ? 1u : 0u);
          EXPECT_FALSE(store.hot_log().Contains(lsn));
          scrubbed += corrupted;
          break;
        }
        case 7: {
          if (rng.NextBounded(4) != 0) break;
          // A replacement hydrates from a donor holding what was handed
          // out so far (before the truncation, only history below the
          // annulled range) and takes over. It ships each block
          // materialized at its SCL, so readers move past that point.
          auto donor = MakeStore();
          if (truncated) {
            ASSERT_TRUE(donor.UpdateVolumeEpoch(truncation).ok());
          }
          std::vector<log::SealedRecord> handed;
          for (size_t i = 0; i < delivered; ++i) {
            if (truncated || delivery[i]->lsn < annul_lo) {
              handed.push_back(delivery[i]);
            }
          }
          ASSERT_TRUE(donor.Ingest(handed, RedoSource::kPeer).ok());
          donor.ObservePgmrpl(store.pgmrpl());
          donor.CoalesceStep(rng.NextBounded(kRecords));
          HydrationRequest request;
          request.have_scl = kInvalidLsn;
          request.need_blocks = true;
          const HydrationResponse response = donor.BuildHydration(request);
          auto replacement = MakeStore(/*is_full=*/true, /*hydrated=*/false);
          replacement.BeginHydration(donor.scl());
          ASSERT_TRUE(replacement.AbsorbHydration(response).ok());
          ASSERT_TRUE(replacement.hydrated());
          ASSERT_EQ(replacement.scl(), donor.scl());
          replacement.ObservePgmrpl(std::max(store.pgmrpl(), donor.scl()));
          store = std::move(replacement);
          hydrations++;
          break;
        }
        default:
          if (store.scl() != kInvalidLsn) {
            check(10 + rng.NextBounded(kBlocks),
                  1 + rng.NextBounded(store.scl()));
          }
          break;
      }
    }
    // Drain: finish the old timeline and the truncation, re-deliver every
    // record (re-filling scrub's holes), fold everything below a final
    // floor, then sweep every read.
    note_floor();
    if (!truncated) {
      ASSERT_TRUE(store.Ingest({delivery.begin() + delivered,
                                delivery.begin() + truncate_at},
                               RedoSource::kPeer)
                      .ok());
      delivered = truncate_at;
      truncate();
    }
    ASSERT_TRUE(store.Ingest(delivery, RedoSource::kPeer).ok());
    ASSERT_EQ(store.scl(), kRecords);
    raise_floor(1 + rng.NextBounded(kRecords));
    store.CoalesceStep(kRecords);
    store.MarkBackedUp(kRecords);
    collect();
    for (BlockId block = 10; block < 10 + kBlocks; ++block) {
      for (Lsn r = 1; r <= kRecords; ++r) check(block, r);
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(scrubbed, 0u);
  EXPECT_GT(hydrations, 0u);
}

TEST(SegmentStore, PendingBackupOnlyChainComplete) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(3, 2, 7, 2, InsertOp("b", "2"))},
                           RedoSource::kWrite)
                  .ok());
  auto pending = store.PendingBackup(100);
  ASSERT_EQ(pending.size(), 1u) << "record 3 is beyond SCL (gap at 2)";
  EXPECT_EQ(pending[0]->lsn, 1u);
}

TEST(SegmentStore, ScrubDetectsAndDropsCorruption) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1"))},
                           RedoSource::kWrite)
                  .ok());
  EXPECT_EQ(store.Scrub(), 0u);
  ASSERT_TRUE(store.CorruptRecordForTest(2));
  EXPECT_EQ(store.Scrub(), 1u);
  EXPECT_EQ(store.scl(), 1u) << "corrupt record dropped; SCL rewound";
  // Gossip redelivery heals.
  ASSERT_TRUE(
      store.Ingest({DataRecord(2, 1, 7, 1, InsertOp("a", "1"))},
                   RedoSource::kPeer).ok());
  EXPECT_EQ(store.scl(), 2u);
}

// Damage between the writer's seal and the segment — in transit to Append
// or inside a gossip reply — leaves the carried checksum unmatched, so the
// next scrub drops the record even though it was never good here.
TEST(SegmentStore, ScrubCatchesCorruptionBeforeAppend) {
  auto flip_first_byte = [](const log::SealedRecord& sealed) {
    log::RedoRecord record = *sealed;
    std::string bytes(record.payload.view());
    bytes[0] = static_cast<char>(bytes[0] ^ 0x40);
    record.payload = std::move(bytes);
    return log::SealedRecord(std::move(record));  // keeps the sealed crc
  };
  auto store = MakeStore();
  const auto in_transit = DataRecord(2, 1, 7, 1, InsertOp("a", "1"));
  const auto gossiped = DataRecord(3, 2, 8, 0, FormatOp());
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            flip_first_byte(in_transit)}, RedoSource::kWrite)
                  .ok());
  ASSERT_TRUE(store.Ingest({flip_first_byte(gossiped)},
                           RedoSource::kPeer).ok());
  EXPECT_EQ(store.scl(), 3u);
  EXPECT_EQ(store.PendingRedoCount(), 3u);
  EXPECT_EQ(store.Scrub(), 2u);
  EXPECT_EQ(store.scl(), 1u) << "both damaged records dropped";
  EXPECT_EQ(store.PendingRedoCount(), 1u);
  // Clean redelivery heals, and the healed copies scrub clean.
  ASSERT_TRUE(store.Ingest({in_transit, gossiped}, RedoSource::kPeer).ok());
  EXPECT_EQ(store.scl(), 3u);
  EXPECT_EQ(store.Scrub(), 0u);
  auto page = store.ReadPage(7, 3);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->entries.at("a"), "1");
}

// ---------------------------------------------------------------------- //
// SegmentStore: truncation & hydration

TEST(SegmentStore, TruncationDropsAnnulledVersions) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("k", "v1")),
                            DataRecord(3, 2, 7, 2, InsertOp("k", "dead"))},
                           RedoSource::kWrite)
                  .ok());
  store.CoalesceStep(100);
  VolumeEpochUpdateRequest request;
  request.segment = 0;
  request.new_epoch = 2;
  request.truncation = log::TruncationRange{3, 1000};
  ASSERT_TRUE(store.UpdateVolumeEpoch(request).ok());
  EXPECT_EQ(store.scl(), 2u);
  auto page = store.ReadPage(7, 2);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.at("k"), "v1") << "annulled version dropped";
  // Stale epoch update rejected.
  EXPECT_TRUE(store.UpdateVolumeEpoch(request).IsStaleEpoch());
}

TEST(SegmentStore, HydrationViaGossipRecords) {
  auto donor = MakeStore();
  ASSERT_TRUE(donor.Ingest({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1")),
                            DataRecord(3, 2, 7, 2, InsertOp("b", "2"))},
                           RedoSource::kWrite)
                  .ok());
  donor.CoalesceStep(100);

  quorum::SegmentInfo fresh_info{6, 110, 2, true};
  SegmentStore fresh(fresh_info, 0, TestConfig(), 1, /*hydrated=*/false);
  fresh.BeginHydration(/*target_scl=*/3);
  EXPECT_FALSE(fresh.hydrated());

  HydrationRequest request{0, 6, fresh.scl(), true};
  auto response = donor.BuildHydration(request);
  ASSERT_TRUE(fresh.AbsorbHydration(response).ok());
  EXPECT_TRUE(fresh.hydrated());
  EXPECT_EQ(fresh.scl(), 3u);
  auto page = fresh.ReadPage(7, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.size(), 2u);
}

// A record is the same whether it arrives by write, gossip, hydration or
// archive restore (§2.2): each source leaves the same SCL, pending redo
// and pages, and differs only in the counter it bumps.
TEST(SegmentStore, IngestSourcesAgree) {
  // Two blocks' chains, out of LSN order, with one record delivered twice.
  const std::vector<log::SealedRecord> records = {
      DataRecord(1, 0, 7, 0, FormatOp()),
      DataRecord(3, 2, 7, 1, InsertOp("a", "1")),
      DataRecord(2, 1, 9, 0, FormatOp()),
      DataRecord(4, 3, 9, 2, InsertOp("b", "2")),
      DataRecord(3, 2, 7, 1, InsertOp("a", "1")),
      DataRecord(5, 4, 7, 3, InsertOp("a", "3")),
  };
  const Lsn last = 5;
  auto written = MakeStore();
  ASSERT_TRUE(written.Ingest(records, RedoSource::kWrite).ok());
  auto gossiped = MakeStore();
  ASSERT_TRUE(gossiped.Ingest(records, RedoSource::kPeer).ok());
  auto hydrated = MakeStore(/*is_full=*/true, /*hydrated=*/false);
  hydrated.BeginHydration(last);
  HydrationResponse response;
  response.records = records;
  ASSERT_TRUE(hydrated.AbsorbHydration(response).ok());
  auto restored = MakeStore();
  restored.ResetToArchive(records, last, /*new_epoch=*/2);

  EXPECT_EQ(written.stats().records_received, 5u);
  EXPECT_EQ(written.stats().records_duplicate, 1u);
  EXPECT_EQ(gossiped.stats().records_gossip_filled, 5u);
  EXPECT_EQ(hydrated.stats().records_gossip_filled, 5u);
  EXPECT_EQ(restored.stats().records_received +
                restored.stats().records_gossip_filled,
            0u);
  ASSERT_TRUE(hydrated.hydrated());
  for (SegmentStore* store : {&gossiped, &hydrated, &restored}) {
    EXPECT_EQ(store->scl(), written.scl());
    EXPECT_EQ(store->PendingRedoCount(), written.PendingRedoCount());
    for (BlockId block : {7, 9}) {
      for (Lsn lsn = 1; lsn <= last; ++lsn) {
        auto want = written.ReadPage(block, lsn);
        auto got = store->ReadPage(block, lsn);
        ASSERT_EQ(got.status().code(), want.status().code())
            << "block " << block << " at " << lsn;
        if (want.ok()) {
          EXPECT_EQ(got->page_lsn, want->page_lsn);
          EXPECT_EQ(got->entries, want->entries);
        }
      }
    }
  }
  EXPECT_EQ(written.scl(), last);
  EXPECT_EQ(written.PendingRedoCount(), 5u);
}

TEST(SegmentStore, MembershipInstallMonotone) {
  auto store = MakeStore();
  auto next = TestConfig().BeginReplace(5, quorum::SegmentInfo{6, 110, 2, true});
  MembershipUpdateRequest request;
  request.segment = 0;
  request.expected_epoch = 1;
  request.config = *next;
  ASSERT_TRUE(store.UpdateMembership(request).ok());
  EXPECT_EQ(store.config().epoch(), 2u);
  EXPECT_TRUE(store.UpdateMembership(request).IsStaleEpoch());
}

// ---------------------------------------------------------------------- //
// SimDisk & ObjectStore

TEST(SimDisk, FifoQueueing) {
  sim::Simulator sim;
  DiskOptions options;
  options.write_latency = LatencyDistribution::Constant(100);
  options.bytes_per_us = 0;
  SimDisk disk(&sim, options);
  std::vector<int> order;
  disk.SubmitWrite(10, [&]() { order.push_back(1); });
  disk.SubmitWrite(10, [&]() { order.push_back(2); });
  EXPECT_EQ(disk.QueueDepth(), 2u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.Now(), 200) << "serial service";
  EXPECT_EQ(disk.ops_completed(), 2u);
}

TEST(ObjectStore, PutThenGetVisibleAfterLatency) {
  sim::Simulator sim;
  ObjectStore store(&sim);
  std::vector<log::SealedRecord> records = {
      DataRecord(1, 0, 7, 0, FormatOp()),
      DataRecord(2, 1, 7, 1, InsertOp("a", "1"))};
  Lsn archived = kInvalidLsn;
  store.Put(0, records, [&](Lsn max_lsn) { archived = max_lsn; });
  sim.Run();
  EXPECT_EQ(archived, 2u);
  EXPECT_EQ(store.MaxArchivedLsn(0), 2u);

  std::vector<log::SealedRecord> fetched;
  store.Get(0, 1, 10, [&](std::vector<log::SealedRecord> r) {
    fetched = std::move(r);
  });
  sim.Run();
  EXPECT_EQ(fetched.size(), 2u);
  EXPECT_GT(store.bytes_stored(), 0u);
}

// Backup hands the archive the hot log's sealed handles, so the archive
// and every segment of the PG share one block per LSN.
TEST(ObjectStore, ArchiveSharesTheHotLogsBlocks) {
  sim::Simulator sim;
  ObjectStore store(&sim);
  const std::vector<log::SealedRecord> records = {
      DataRecord(1, 0, 7, 0, FormatOp()),
      DataRecord(2, 1, 7, 1, InsertOp("a", "1")),
      DataRecord(3, 2, 7, 2, InsertOp("b", "2"))};
  std::vector<SegmentStore> segments;
  for (SegmentId id = 0; id < 6; ++id) {
    segments.emplace_back(quorum::SegmentInfo{id, 100 + id, 0, true}, 0,
                          TestConfig(), /*volume_epoch=*/1);
    ASSERT_TRUE(segments.back().Ingest(records, RedoSource::kWrite).ok());
  }
  for (SegmentStore& segment : segments) {
    store.Put(0, segment.PendingBackup(16), [](Lsn) {});
  }
  sim.Run();
  std::vector<log::SealedRecord> archived;
  store.Get(0, 1, 3, [&](std::vector<log::SealedRecord> r) {
    archived = std::move(r);
  });
  sim.Run();
  ASSERT_EQ(archived.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(archived[i].get(), records[i].get());
    for (const SegmentStore& segment : segments) {
      EXPECT_EQ(segment.hot_log().Find(records[i]->lsn), records[i].get());
    }
  }
  // Every holder counts on the one block: this test, six hot logs, six
  // pending-redo entries, the archive and the fetched reply.
  EXPECT_EQ(records[1].use_count(), 1u + 6u + 6u + 1u + 1u);
}

TEST(ObjectStore, DeduplicatesRecords) {
  sim::Simulator sim;
  ObjectStore store(&sim);
  auto rec = DataRecord(1, 0, 7, 0, FormatOp());
  store.Put(0, {rec}, [](Lsn) {});
  store.Put(0, {rec}, [](Lsn) {});
  sim.Run();
  EXPECT_EQ(store.bytes_stored(), rec->SerializedSize());
}

// Six segments of one PG archive overlapping, duplicated and out-of-order
// batches under one key, with uploads completing in random order. The
// archive must hold each LSN once and answer like a std::map.
TEST(ObjectStore, SixSegmentArchiveMatchesMapReference) {
  constexpr Lsn kRecords = 300;
  std::vector<log::SealedRecord> stream;
  for (Lsn lsn = 1; lsn <= kRecords; ++lsn) {
    stream.push_back(DataRecord(lsn, lsn - 1, 7 + lsn % 3, 0,
                                InsertOp("k", std::string(lsn % 40, 'v'))));
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sim::Simulator sim;
    ObjectStore store(&sim);
    std::map<Lsn, log::SealedRecord> reference;
    std::vector<Lsn> backed_up(6, 0);
    for (int round = 0; round < 60; ++round) {
      // A segment archives its next range, sometimes re-sending part of
      // the last one or skipping ahead (a gap filled later by others).
      const size_t segment = rng.NextBounded(6);
      Lsn lo = backed_up[segment] + 1;
      if (lo > 1 && rng.Bernoulli(0.3)) lo -= std::min<Lsn>(lo - 1, 5);
      if (rng.Bernoulli(0.2)) lo += rng.NextBounded(10);
      const Lsn hi = std::min(kRecords, lo + rng.NextBounded(12));
      std::vector<log::SealedRecord> batch;
      for (Lsn lsn = lo; lsn <= hi; ++lsn) batch.push_back(stream[lsn - 1]);
      if (!batch.empty() && rng.Bernoulli(0.3)) batch.push_back(batch.front());
      if (rng.Bernoulli(0.3)) std::reverse(batch.begin(), batch.end());
      Lsn want_max = kInvalidLsn;
      for (const auto& record : batch) {
        reference.emplace(record->lsn, record);
        want_max = std::max(want_max, record->lsn);
      }
      backed_up[segment] = std::max(backed_up[segment], hi);
      store.Put(kTestArchiveKey, batch,
                [want_max](Lsn max_lsn) { EXPECT_EQ(max_lsn, want_max); });
      // Let some uploads land before the next ones start.
      if (rng.Bernoulli(0.5)) sim.RunFor(rng.NextBounded(30 * kMillisecond));
    }
    store.Put(kTestArchiveKey + 1, {stream[0]}, [](Lsn) {});
    sim.Run();
    uint64_t want_bytes = stream[0]->SerializedSize();
    for (const auto& [lsn, record] : reference) {
      want_bytes += record->SerializedSize();
    }
    EXPECT_EQ(store.bytes_stored(), want_bytes);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(store.MaxArchivedLsn(kTestArchiveKey), reference.rbegin()->first);
    EXPECT_EQ(store.MaxArchivedLsn(kTestArchiveKey + 2), kInvalidLsn);
    for (int query = 0; query < 20; ++query) {
      const Lsn lo = rng.NextBounded(kRecords + 2);
      const Lsn hi = lo + rng.NextBounded(kRecords / 2);
      std::vector<log::SealedRecord> want;
      for (auto it = reference.lower_bound(lo);
           it != reference.end() && it->first <= hi; ++it) {
        want.push_back(it->second);
      }
      std::vector<log::SealedRecord> got;
      store.Get(kTestArchiveKey, lo, hi,
                [&](std::vector<log::SealedRecord> r) { got = std::move(r); });
      sim.Run();
      EXPECT_EQ(got, want) << "[" << lo << ", " << hi << "]";
    }
  }
}

}  // namespace
}  // namespace aurora::storage

// Regression tests for truncation-history propagation (annulled timelines
// must never be resurrected) and archive-reset semantics.
namespace aurora::storage {
namespace {

quorum::PgConfig RegressionConfig() {
  std::vector<quorum::SegmentInfo> members;
  for (SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<NodeId>(100 + id),
                       static_cast<AzId>(id / 2), true});
  }
  return quorum::PgConfig::Create(0, quorum::QuorumModel::kUniform46,
                                  members);
}

log::SealedRecord ChainRecord(Lsn lsn, Lsn prev) {
  log::RedoRecord rec;
  rec.lsn = lsn;
  rec.prev_lsn_segment = prev;
  rec.prev_lsn_block = 0;
  rec.pg = 0;
  rec.block = 3;
  PageOp op;
  op.type = PageOpType::kFormat;
  op.page_type = PageType::kLeaf;
  rec.payload = EncodePageOp(op);
  return log::Seal(std::move(rec));
}

TEST(SegmentStore, HydrationCarriesTruncationHistory) {
  // Donor lived through a recovery that annulled [3, 100].
  SegmentStore donor({0, 100, 0, true}, 0, RegressionConfig(), 1);
  ASSERT_TRUE(donor.Ingest({ChainRecord(1, 0), ChainRecord(2, 1),
                            ChainRecord(3, 2)}, RedoSource::kWrite).ok());
  VolumeEpochUpdateRequest epoch_update;
  epoch_update.segment = 0;
  epoch_update.new_epoch = 2;
  epoch_update.truncation = log::TruncationRange{3, 100};
  ASSERT_TRUE(donor.UpdateVolumeEpoch(epoch_update).ok());
  ASSERT_TRUE(donor.Ingest({ChainRecord(101, 2)}, RedoSource::kWrite).ok());
  ASSERT_EQ(donor.scl(), 101u);

  // A fresh segment hydrates from the donor, then is offered the annulled
  // record (e.g. from a stale archive): it must refuse it.
  SegmentStore fresh({9, 109, 2, true}, 0, RegressionConfig(), 2,
                     /*hydrated=*/false);
  fresh.BeginHydration(101);
  HydrationRequest request{0, 9, kInvalidLsn, true};
  ASSERT_TRUE(fresh.AbsorbHydration(donor.BuildHydration(request)).ok());
  EXPECT_TRUE(fresh.hydrated());
  EXPECT_EQ(fresh.scl(), 101u);
  ASSERT_TRUE(fresh.Ingest({ChainRecord(3, 2)}, RedoSource::kPeer).ok());
  EXPECT_FALSE(fresh.hot_log().Contains(3))
      << "annulled record resurrected through hydration";
}

TEST(SegmentStore, ResetToArchivePreservesTruncations) {
  SegmentStore store({0, 100, 0, true}, 0, RegressionConfig(), 1);
  ASSERT_TRUE(store.Ingest({ChainRecord(1, 0), ChainRecord(2, 1)},
                           RedoSource::kWrite).ok());
  VolumeEpochUpdateRequest epoch_update;
  epoch_update.segment = 0;
  epoch_update.new_epoch = 2;
  epoch_update.truncation = log::TruncationRange{2, 50};
  ASSERT_TRUE(store.UpdateVolumeEpoch(epoch_update).ok());

  // Restore from an archive that (legitimately) still contains the
  // annulled record 2: it must stay annulled.
  store.ResetToArchive({ChainRecord(1, 0), ChainRecord(2, 1)},
                       /*restore_point=*/60, /*new_epoch=*/3);
  EXPECT_EQ(store.scl(), 1u);
  EXPECT_FALSE(store.hot_log().Contains(2));
  // And the reset installed its own range above the restore point.
  ASSERT_TRUE(store.Ingest({ChainRecord(61, 1)}, RedoSource::kWrite).ok());
  EXPECT_FALSE(store.hot_log().Contains(61))
      << "old-timeline record above the restore point must be annulled";
}

// ---------------------------------------------------------------------- //
// storage::Call

constexpr SimDuration kCallLink = 50;

/// A client (node 1) and one storage node (node 100, hosting segment 0 of
/// TestConfig) on constant-latency links with no bandwidth term.
struct CallFixture {
  sim::Simulator sim;
  sim::Network net;
  StorageNode node;

  CallFixture()
      : net(&sim, ConstantLinks()),
        node(&sim, &net, 100, 0, /*object_store=*/nullptr,
             StorageNodeOptions{.background_enabled = false}) {
    net.RegisterNode(1, 0);
    node.AddSegment(TestConfig().AllMembers()[0], 0, TestConfig(),
                    /*volume_epoch=*/1);
  }

  static sim::NetworkOptions ConstantLinks() {
    sim::NetworkOptions options;
    options.intra_az = LatencyDistribution::Constant(kCallLink);
    options.bytes_per_us = 0;
    return options;
  }

  auto Resolver() {
    return [this](NodeId id) { return id == node.id() ? &node : nullptr; };
  }
};

WriteRequest OneRecordWrite() {
  WriteRequest request;
  request.segment = 0;
  request.epochs = EpochVector{1, TestConfig().epoch()};
  request.records = {DataRecord(1, 0, 7, 0, FormatOp())};
  return request;
}

TEST(StorageCall, UnresolvedNodeAnswersUnavailableOverTheWire) {
  CallFixture f;
  int replies = 0;
  SegmentStateResponse reply;
  SimTime replied_at = 0;
  const NodeResolver unwired;  // resolves nothing
  Call<&StorageNode::HandleSegmentState>(
      &f.net, 1, f.node.id(), ResolveWith(unwired), SegmentStateRequest{0},
      [&](SegmentStateResponse r) {
        ++replies;
        reply = std::move(r);
        replied_at = f.sim.Now();
      });
  f.sim.Run();
  ASSERT_EQ(replies, 1);
  EXPECT_EQ(reply.status.code(), StatusCode::kUnavailable);
  // The refusal is a reply like any other: both legs cross the wire and
  // both are charged.
  EXPECT_EQ(replied_at, 2 * kCallLink);
  EXPECT_EQ(f.net.stats().messages_delivered, 2u);
  EXPECT_EQ(f.net.stats().bytes_delivered,
            SegmentStateRequest{}.SerializedSize() +
                SegmentStateResponse{}.SerializedSize());
}

TEST(StorageCall, CrashedNodeNeverRunsOnReply) {
  CallFixture f;
  bool replied = false;
  // Down before the send: the request never leaves.
  f.net.Crash(f.node.id());
  Call<&StorageNode::HandleSegmentState>(
      &f.net, 1, f.node.id(), f.Resolver(), SegmentStateRequest{0},
      [&](SegmentStateResponse) { replied = true; });
  f.sim.Run();
  EXPECT_FALSE(replied);
  // Crashes while the request is in flight: dropped at delivery.
  f.net.Restart(f.node.id());
  Call<&StorageNode::HandleWrite>(&f.net, 1, f.node.id(), f.Resolver(),
                                  OneRecordWrite(),
                                  [&](WriteAck) { replied = true; });
  f.sim.Schedule(kCallLink / 2, [&f]() { f.net.Crash(f.node.id()); });
  f.sim.Run();
  EXPECT_FALSE(replied);
  EXPECT_EQ(f.net.stats().messages_delivered, 0u);
}

// The helper is a UnaryCall whose server side resolves the node: it
// charges exactly the bytes, and lands the reply at exactly the time, of
// the hand-written call it replaces — for a sized request (a write) and
// a sized reply (gossip records).
TEST(StorageCall, ChargesWhatTheHandWrittenUnaryCallCharges) {
  struct Outcome {
    Lsn ack_scl = kInvalidLsn;
    size_t gossiped = 0;
    SimTime replied_at = 0;
    sim::NetworkStats net;
  };
  const GossipRequest gossip{/*from_segment=*/1, /*to_segment=*/0,
                             /*scl=*/kInvalidLsn};
  auto run = [&](bool via_helper) {
    CallFixture f;
    Outcome out;
    auto on_ack = [&](WriteAck ack) { out.ack_scl = ack.scl; };
    auto on_gossip = [&](GossipResponse r) {
      out.gossiped = r.records.size();
      out.replied_at = f.sim.Now();
    };
    if (via_helper) {
      Call<&StorageNode::HandleWrite>(&f.net, 1, f.node.id(), f.Resolver(),
                                      OneRecordWrite(), on_ack);
      f.sim.Run();
      Call<&StorageNode::HandleGossip>(&f.net, 1, f.node.id(), f.Resolver(),
                                       gossip, on_gossip);
    } else {
      WriteRequest write = OneRecordWrite();
      const uint64_t write_bytes = write.SerializedSize();
      sim::UnaryCall<WriteAck>(
          &f.net, 1, f.node.id(), write_bytes,
          [&f, write = std::move(write)](
              sim::ReplyFn<WriteAck> reply) mutable {
            f.node.HandleWrite(std::move(write), std::move(reply));
          },
          [](const WriteAck& a) { return a.SerializedSize(); }, on_ack);
      f.sim.Run();
      sim::UnaryCall<GossipResponse>(
          &f.net, 1, f.node.id(), gossip.SerializedSize(),
          [&f, gossip](sim::ReplyFn<GossipResponse> reply) {
            f.node.HandleGossip(gossip, std::move(reply));
          },
          [](const GossipResponse& r) { return r.SerializedSize(); },
          on_gossip);
    }
    f.sim.Run();
    out.net = f.net.stats();
    return out;
  };
  const Outcome helper = run(true);
  const Outcome hand = run(false);
  EXPECT_EQ(helper.ack_scl, 1u);
  EXPECT_EQ(helper.gossiped, 1u);
  EXPECT_EQ(helper.ack_scl, hand.ack_scl);
  EXPECT_EQ(helper.gossiped, hand.gossiped);
  EXPECT_EQ(helper.replied_at, hand.replied_at);
  EXPECT_EQ(helper.net.messages_delivered, 4u);
  EXPECT_EQ(helper.net.messages_delivered, hand.net.messages_delivered);
  EXPECT_EQ(helper.net.bytes_delivered, hand.net.bytes_delivered);
  // The record is charged on both sized legs, not just the envelopes.
  EXPECT_GT(helper.net.bytes_delivered, 4 * kMessageOverheadBytes);
}

}  // namespace
}  // namespace aurora::storage
