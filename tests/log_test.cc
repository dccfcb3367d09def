// Unit tests for the redo log: record codec, segment hot log (SCL / gaps /
// gossip chains / truncation / GC / scrub removal), and the boxcar
// batching policies.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/log/boxcar.h"
#include "src/log/hot_log.h"
#include "src/log/record.h"
#include "src/sim/simulator.h"

namespace aurora::log {
namespace {

RedoRecord MakeRecord(Lsn lsn, Lsn prev_seg, ProtectionGroupId pg = 0,
                      BlockId block = 7, std::string payload = "op") {
  RedoRecord rec;
  rec.lsn = lsn;
  rec.prev_lsn_volume = lsn - 1;
  rec.prev_lsn_segment = prev_seg;
  rec.prev_lsn_block = 0;
  rec.pg = pg;
  rec.block = block;
  rec.txn = 1;
  rec.payload = std::move(payload);
  rec.crc = RecordBodyCrc(rec);
  return rec;
}

SealedRecord Sealed(Lsn lsn, Lsn prev_seg, ProtectionGroupId pg = 0,
                    BlockId block = 7, std::string payload = "op") {
  return Seal(MakeRecord(lsn, prev_seg, pg, block, std::move(payload)));
}

// ---------------------------------------------------------------------- //
// Codec

TEST(RecordCodec, RoundTrip) {
  RedoRecord rec = MakeRecord(42, 41);
  rec.type = RecordType::kCommit;
  rec.mtr = MtrBoundary::kEnd;
  rec.payload = std::string("\x00\x01\x02 binary \xff", 12);
  rec.crc = RecordBodyCrc(rec);  // the header changed; the trailer must match
  const std::string encoded = EncodeRecord(rec);
  EXPECT_EQ(encoded.size(), rec.SerializedSize());
  auto decoded = DecodeRecord(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, rec);
}

TEST(RecordCodec, EmptyPayload) {
  RedoRecord rec = MakeRecord(1, 0, 0, kInvalidBlock, "");
  auto decoded = DecodeRecord(EncodeRecord(rec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rec);
}

TEST(RecordCodec, DetectsCorruption) {
  std::string encoded = EncodeRecord(MakeRecord(5, 4));
  encoded[10] ^= 0x40;
  EXPECT_TRUE(DecodeRecord(encoded).status().IsCorruption());
}

TEST(RecordCodec, DetectsTruncation) {
  std::string encoded = EncodeRecord(MakeRecord(5, 4));
  encoded.resize(encoded.size() - 3);
  EXPECT_TRUE(DecodeRecord(encoded).status().IsCorruption());
}

TEST(RecordCodec, RejectsBadEnums) {
  std::string encoded = EncodeRecord(MakeRecord(5, 4));
  encoded[52] = 9;  // type byte out of range
  EXPECT_TRUE(DecodeRecord(encoded).status().IsCorruption());
}

// ---------------------------------------------------------------------- //
// SegmentHotLog

TEST(HotLog, SclAdvancesAlongChain) {
  SegmentHotLog log;
  EXPECT_EQ(log.scl(), kInvalidLsn);
  ASSERT_TRUE(log.Append(Sealed(1, 0)).ok());
  EXPECT_EQ(log.scl(), 1u);
  ASSERT_TRUE(log.Append(Sealed(2, 1)).ok());
  EXPECT_EQ(log.scl(), 2u);
}

TEST(HotLog, GapHoldsSclThenFills) {
  SegmentHotLog log;
  ASSERT_TRUE(log.Append(Sealed(1, 0)).ok());
  ASSERT_TRUE(log.Append(Sealed(3, 2)).ok());  // 2 missing
  EXPECT_EQ(log.scl(), 1u);
  ASSERT_TRUE(log.Append(Sealed(4, 3)).ok());
  EXPECT_EQ(log.scl(), 1u);
  ASSERT_TRUE(log.Append(Sealed(2, 1)).ok());  // hole filled
  EXPECT_EQ(log.scl(), 4u) << "SCL jumps across the filled hole";
}

TEST(HotLog, AppendIsIdempotent) {
  SegmentHotLog log;
  ASSERT_TRUE(log.Append(Sealed(1, 0)).ok());
  ASSERT_TRUE(log.Append(Sealed(1, 0)).ok());
  EXPECT_EQ(log.RecordCount(), 1u);
}

TEST(HotLog, OutOfOrderDeliveryConverges) {
  // Property: any delivery permutation yields the same SCL.
  std::vector<SealedRecord> records;
  for (Lsn l = 1; l <= 8; ++l) records.push_back(Sealed(l, l - 1));
  std::vector<size_t> perm = {7, 2, 0, 5, 1, 6, 3, 4};
  SegmentHotLog log;
  for (size_t i : perm) ASSERT_TRUE(log.Append(records[i]).ok());
  EXPECT_EQ(log.scl(), 8u);
}

TEST(HotLog, ChainAfterReturnsMissingSuffix) {
  SegmentHotLog log;
  for (Lsn l = 1; l <= 5; ++l) ASSERT_TRUE(log.Append(Sealed(l, l - 1)).ok());
  auto chain = log.ChainAfter(2, 10);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0]->lsn, 3u);
  EXPECT_EQ(chain[2]->lsn, 5u);
  EXPECT_TRUE(log.ChainAfter(5, 10).empty());
}

TEST(HotLog, GossipFillsPeerGap) {
  SegmentHotLog complete, lagging;
  for (Lsn l = 1; l <= 6; ++l) {
    ASSERT_TRUE(complete.Append(Sealed(l, l - 1)).ok());
  }
  ASSERT_TRUE(lagging.Append(Sealed(1, 0)).ok());
  ASSERT_TRUE(lagging.Append(Sealed(5, 4)).ok());
  ASSERT_TRUE(lagging.Append(Sealed(6, 5)).ok());
  EXPECT_EQ(lagging.scl(), 1u);
  // Gossip exchange: lagging advertises SCL=1; peer responds with chain.
  for (const auto& rec : complete.ChainAfter(lagging.scl(), 100)) {
    ASSERT_TRUE(lagging.Append(rec).ok());
  }
  EXPECT_EQ(lagging.scl(), 6u);
}

TEST(HotLog, TruncationAnnulsRangeAndLateArrivals) {
  SegmentHotLog log;
  for (Lsn l = 1; l <= 10; ++l) ASSERT_TRUE(log.Append(Sealed(l, l - 1)).ok());
  log.Truncate(TruncationRange{6, 1000});
  EXPECT_EQ(log.scl(), 5u);
  EXPECT_FALSE(log.Contains(7));
  // A late in-flight write inside the annulled range is ignored (§2.4).
  ASSERT_TRUE(log.Append(Sealed(8, 7)).ok());
  EXPECT_FALSE(log.Contains(8));
  // Post-recovery records above the range chain onto the kept tail.
  ASSERT_TRUE(log.Append(Sealed(1001, 5)).ok());
  EXPECT_EQ(log.scl(), 1001u);
}

TEST(HotLog, MultipleTruncationsAccumulate) {
  SegmentHotLog log;
  for (Lsn l = 1; l <= 4; ++l) ASSERT_TRUE(log.Append(Sealed(l, l - 1)).ok());
  log.Truncate(TruncationRange{3, 100});
  ASSERT_TRUE(log.Append(Sealed(101, 2)).ok());
  log.Truncate(TruncationRange{101, 200});
  EXPECT_EQ(log.scl(), 2u);
  EXPECT_EQ(log.truncations().size(), 2u);
  ASSERT_TRUE(log.Append(Sealed(50, 2)).ok());   // annulled by first
  ASSERT_TRUE(log.Append(Sealed(150, 2)).ok());  // annulled by second
  EXPECT_FALSE(log.Contains(50));
  EXPECT_FALSE(log.Contains(150));
}

TEST(HotLog, EvictBelowKeepsLogicalChain) {
  SegmentHotLog log;
  for (Lsn l = 1; l <= 10; ++l) ASSERT_TRUE(log.Append(Sealed(l, l - 1)).ok());
  log.EvictBelow(5);
  EXPECT_EQ(log.RecordCount(), 5u);
  EXPECT_EQ(log.gc_floor(), 5u);
  EXPECT_EQ(log.scl(), 10u) << "GC must not regress SCL";
  // New appends continue the chain.
  ASSERT_TRUE(log.Append(Sealed(11, 10)).ok());
  EXPECT_EQ(log.scl(), 11u);
}

TEST(HotLog, RemoveRewindsScl) {
  SegmentHotLog log;
  for (Lsn l = 1; l <= 5; ++l) ASSERT_TRUE(log.Append(Sealed(l, l - 1)).ok());
  EXPECT_TRUE(log.Remove(3));
  EXPECT_EQ(log.scl(), 2u) << "scrubbed-out record breaks the chain";
  // Re-delivery (gossip) heals it.
  ASSERT_TRUE(log.Append(Sealed(3, 2)).ok());
  EXPECT_EQ(log.scl(), 5u);
}

TEST(HotLog, RangeQueriesOnOutOfOrderContents) {
  SegmentHotLog log;
  // Arrival order scrambled; the flat store must still answer range
  // queries in ascending LSN order.
  for (Lsn l : {4u, 1u, 7u, 2u, 6u, 3u, 5u}) {
    ASSERT_TRUE(log.Append(Sealed(l, l - 1)).ok());
  }
  auto in_range = log.RecordsInRange(2, 5);
  ASSERT_EQ(in_range.size(), 4u);
  for (size_t i = 0; i < in_range.size(); ++i) {
    EXPECT_EQ(in_range[i]->lsn, 2u + i);
  }
  auto above = log.RecordsAbove(5, 10);
  ASSERT_EQ(above.size(), 2u);
  EXPECT_EQ(above[0]->lsn, 6u);
  EXPECT_EQ(above[1]->lsn, 7u);
  EXPECT_EQ(log.RecordsAbove(7, 10).size(), 0u);
  EXPECT_EQ(log.RecordsInRange(8, 100).size(), 0u);
}

TEST(HotLog, TruncateEvictRemoveRoundTrip) {
  // One log pushed through the full lifecycle: out-of-order fill,
  // truncation, re-append above the gap, GC, scrub removal, gossip heal.
  SegmentHotLog log;
  for (Lsn l : {2u, 1u, 4u, 3u, 6u, 5u, 8u, 7u, 10u, 9u}) {
    ASSERT_TRUE(log.Append(Sealed(l, l - 1)).ok());
  }
  EXPECT_EQ(log.scl(), 10u);
  log.Truncate(TruncationRange{6, 1000});
  EXPECT_EQ(log.scl(), 5u);
  EXPECT_EQ(log.RecordCount(), 5u);
  ASSERT_TRUE(log.Append(Sealed(1001, 5)).ok());
  ASSERT_TRUE(log.Append(Sealed(1002, 1001)).ok());
  EXPECT_EQ(log.scl(), 1002u);
  log.EvictBelow(3);
  EXPECT_EQ(log.gc_floor(), 3u);
  EXPECT_EQ(log.RecordCount(), 4u);  // 4, 5, 1001, 1002
  EXPECT_EQ(log.scl(), 1002u) << "GC must not regress SCL";
  // Scrub out a record sitting mid-chain above the GC floor.
  EXPECT_TRUE(log.Remove(5));
  EXPECT_EQ(log.scl(), 4u) << "rewind lands on the last intact link";
  // Gossip re-delivers the scrubbed record; SCL heals across the
  // truncation gap to the tail.
  ASSERT_TRUE(log.Append(Sealed(5, 4)).ok());
  EXPECT_EQ(log.scl(), 1002u);
  // Everything below or inside the annulled range stays out.
  ASSERT_TRUE(log.Append(Sealed(2, 1)).ok());   // below GC floor
  ASSERT_TRUE(log.Append(Sealed(500, 5)).ok());  // annulled
  EXPECT_FALSE(log.Contains(2));
  EXPECT_FALSE(log.Contains(500));
  EXPECT_EQ(log.RecordCount(), 4u);  // 4, 5, 1001, 1002
}

TEST(HotLog, RemoveBelowEverythingRewindsToFloor) {
  SegmentHotLog log;
  for (Lsn l = 1; l <= 6; ++l) ASSERT_TRUE(log.Append(Sealed(l, l - 1)).ok());
  log.EvictBelow(2);
  // Remove the first record still stored; the rewind anchors at the GC
  // floor (records at or below it were chain-complete when evicted).
  EXPECT_TRUE(log.Remove(3));
  EXPECT_EQ(log.scl(), 2u);
  ASSERT_TRUE(log.Append(Sealed(3, 2)).ok());
  EXPECT_EQ(log.scl(), 6u);
}

TEST(HotLog, RewindAnchorsAtLastEvictedRecord) {
  // Another PG owns LSNs 3, 4 and 6. GC's eviction bound (first pending
  // LSN - 1) can be one of them, so the floor names no record here.
  SegmentHotLog log;
  for (auto [lsn, prev] : {std::pair<Lsn, Lsn>{2, 0}, {5, 2}, {7, 5}}) {
    ASSERT_TRUE(log.Append(Sealed(lsn, prev)).ok());
  }
  log.EvictBelow(4);
  EXPECT_EQ(log.gc_floor(), 4u);
  EXPECT_TRUE(log.Remove(7));
  EXPECT_EQ(log.scl(), 5u) << "rewind re-links 5 through evicted record 2";
  ASSERT_TRUE(log.Append(Sealed(7, 5)).ok());
  EXPECT_EQ(log.scl(), 7u);
  // A truncation rewind takes the same anchor.
  log.Truncate(TruncationRange{6, 100});
  EXPECT_EQ(log.scl(), 5u);
}

TEST(HotLog, CorruptPayloadIsCopyOnWrite) {
  // A sealed record's block is shared by every holder (peers,
  // retransmission buffers). A test-injected corruption must only hit the
  // handle in the corrupted log.
  const SealedRecord original = Sealed(1, 0, 0, 7, "shared-bytes");
  SegmentHotLog healthy, corrupted;
  ASSERT_TRUE(healthy.Append(original).ok());
  ASSERT_TRUE(corrupted.Append(original).ok());
  // Both logs hold the one sealed block.
  EXPECT_EQ(healthy.Find(1), original.get());
  EXPECT_EQ(corrupted.Find(1), original.get());
  EXPECT_EQ(original.use_count(), 3u);
  ASSERT_TRUE(corrupted.CorruptPayloadForTest(1));
  EXPECT_NE(corrupted.Find(1), original.get());
  EXPECT_NE(corrupted.Find(1)->payload.view(), original->payload.view());
  EXPECT_EQ(corrupted.Find(1)->crc, original->crc) << "crc stays the sealed one";
  EXPECT_NE(RecordBodyCrc(*corrupted.Find(1)), original->crc);
  EXPECT_EQ(healthy.Find(1), original.get());
  EXPECT_EQ(original->payload.view(), "shared-bytes");
  EXPECT_EQ(original.use_count(), 2u);
  EXPECT_FALSE(corrupted.CorruptPayloadForTest(99));  // absent LSN
}

TEST(RecordPayload, CopiesShareOneBuffer) {
  RedoRecord rec = MakeRecord(9, 8, 0, 7, std::string(1024, 'x'));
  RedoRecord fanout_copy = rec;  // what SendBatch/gossip used to deep-copy
  EXPECT_EQ(fanout_copy.payload.data(), rec.payload.data())
      << "record copies must alias the payload, not duplicate it";
  EXPECT_EQ(fanout_copy, rec);
}

TEST(RecordPayload, CopyMoveAndSelfAssignKeepOneOwnerCount) {
  // One heap block per payload: copies bump its plain count, moves hand
  // it over, and the last owner frees it (the AddressSanitizer build turns
  // a missed free into a leak report and an early one into a
  // use-after-free).
  Payload a(std::string(100, 'x'));
  const char* bytes = a.data();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a.size(), 100u);
  {
    Payload b = a;
    EXPECT_EQ(b.data(), bytes);
    EXPECT_EQ(a.use_count(), 2u);
    Payload c = std::move(b);
    EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.use_count(), 0u);
    EXPECT_EQ(c.data(), bytes);
    EXPECT_EQ(a.use_count(), 2u);
    Payload& alias = c;
    c = alias;  // self copy-assignment
    EXPECT_EQ(c.data(), bytes);
    EXPECT_EQ(a.use_count(), 2u);
    c = std::move(alias);  // self move-assignment
    EXPECT_EQ(c.data(), bytes);
    EXPECT_EQ(a.use_count(), 2u);
    Payload d("other");
    d = c;  // copy over a sole owner frees the old block
    EXPECT_EQ(a.use_count(), 3u);
    d = Payload();
    EXPECT_EQ(a.use_count(), 2u);
  }
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a.view(), std::string(100, 'x'));
  a = Payload("y");  // the last owner frees the first buffer
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a.view(), "y");

  // Empty payloads own no block.
  EXPECT_TRUE(Payload().empty());
  EXPECT_TRUE(Payload(std::string()).empty());
  EXPECT_EQ(Payload().data(), nullptr);
  EXPECT_EQ(Payload(std::string()).use_count(), 0u);
}

TEST(SealedRecord, SealReusesThePayloadBlock) {
  // One block per record: sealing writes the header into the payload's
  // own block when the record is its only holder.
  RedoRecord rec = MakeRecord(3, 2, 1, 9, std::string(300, 'z'));
  const char* bytes = rec.payload.data();
  const SealedRecord sealed = Seal(std::move(rec));
  EXPECT_EQ(sealed->payload.data(), bytes);
  EXPECT_EQ(sealed.use_count(), 1u);
  EXPECT_EQ(sealed->crc, RecordBodyCrc(*sealed));

  // Copies are handles; a plain copy out co-owns the block.
  SealedRecord copy = sealed;
  EXPECT_EQ(copy.get(), sealed.get());
  EXPECT_EQ(sealed.use_count(), 2u);
  RedoRecord out = *sealed;
  EXPECT_EQ(out.payload.data(), bytes);
  EXPECT_EQ(sealed.use_count(), 3u);
  // A block with other holders is not reused: sealing copies the bytes.
  const SealedRecord resealed = Seal(out);
  EXPECT_NE(resealed->payload.data(), bytes);
  EXPECT_EQ(resealed, sealed) << "equal by content";
  copy = SealedRecord();
  out = RedoRecord();
  EXPECT_EQ(sealed.use_count(), 1u);
  EXPECT_EQ(sealed->payload.view(), std::string(300, 'z'));
}

TEST(SealedRecord, EmptyPayloadStillGetsABlock) {
  const SealedRecord sealed = Seal(MakeRecord(1, 0, 0, kInvalidBlock, ""));
  ASSERT_TRUE(sealed);
  EXPECT_TRUE(sealed->payload.empty());
  EXPECT_EQ(sealed->payload.size(), 0u);
  EXPECT_EQ(sealed->SerializedSize(),
            MakeRecord(1, 0, 0, kInvalidBlock, "").SerializedSize());
  EXPECT_EQ(EncodeRecord(*sealed),
            EncodeRecord(MakeRecord(1, 0, 0, kInvalidBlock, "")));
  EXPECT_FALSE(SealedRecord());
  EXPECT_EQ(SealedRecord().get(), nullptr);
}

TEST(RecordPayload, BuildFillsOneExactlySizedBlock) {
  const Payload built = Payload::Build(5, [](char* out) {
    for (int i = 0; i < 5; ++i) out[i] = static_cast<char>('a' + i);
  });
  EXPECT_EQ(built.view(), "abcde");
  EXPECT_EQ(built.use_count(), 1u);
  EXPECT_EQ(built, Payload("abcde")) << "equality is by content";
  EXPECT_TRUE(Payload::Build(0, [](char*) { FAIL(); }).empty());
}

TEST(HotLog, TotalBytesTracksContents) {
  SegmentHotLog log;
  const SealedRecord rec = Sealed(1, 0);
  ASSERT_TRUE(log.Append(rec).ok());
  EXPECT_EQ(log.TotalBytes(), rec->SerializedSize());
  log.EvictBelow(1);
  EXPECT_EQ(log.TotalBytes(), 0u);
}

TEST(HotLog, TailLookupMatchesReference) {
  // Differential: LowerBound answers at the tail without a search, so
  // every lookup near and away from the back is checked against a
  // std::map model under random in-order, out-of-order and duplicate
  // appends, GC, truncation and scrub removal.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // This segment's chain: a random subset of volume LSNs, each record
    // pointing at the previous one (other PGs own the LSNs in between).
    std::vector<SealedRecord> chain;
    Lsn prev = kInvalidLsn;
    for (Lsn lsn = 1; lsn <= 600; ++lsn) {
      if (rng.Bernoulli(0.5)) continue;
      chain.push_back(Sealed(lsn, prev));
      prev = lsn;
    }
    SegmentHotLog log;
    std::map<Lsn, SealedRecord> model;
    std::vector<TruncationRange> truncations;
    Lsn floor = kInvalidLsn;
    size_t next = 0;  // next in-order chain index
    auto model_append = [&](const SealedRecord& r) {
      for (const auto& t : truncations) {
        if (t.Annuls(r->lsn)) return;
      }
      if (floor != kInvalidLsn && r->lsn <= floor) return;
      model.emplace(r->lsn, r);
    };
    auto model_scl = [&] {
      Lsn scl = floor;
      for (auto it = model.upper_bound(scl);
           it != model.end() && it->second->prev_lsn_segment == scl; ++it) {
        scl = it->first;
      }
      return scl;
    };
    auto append = [&](const SealedRecord& r) {
      ASSERT_TRUE(log.Append(r).ok());
      model_append(r);
    };
    auto random_stored = [&]() -> Lsn {
      if (model.empty()) return kInvalidLsn;
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      return it->first;
    };
    for (int step = 0; step < 500 && next < chain.size(); ++step) {
      const uint64_t dice = rng.NextBounded(100);
      if (dice < 55) {
        // In order; now and then skip one to leave a hole behind.
        if (rng.Bernoulli(0.1) && next + 1 < chain.size()) ++next;
        append(chain[next++]);
      } else if (dice < 70) {
        append(chain[rng.NextBounded(next + 1)]);  // at or below `next`
      } else if (dice < 80) {
        const Lsn lsn = random_stored();
        if (lsn != kInvalidLsn) append(model.at(lsn));
      } else if (dice < 86) {
        // GC to a stored LSN at or below SCL, as the segment store does.
        std::vector<Lsn> below;
        const Lsn scl = model_scl();
        for (const auto& [lsn, r] : model) {
          if (lsn <= scl) below.push_back(lsn);
        }
        if (!below.empty()) {
          const Lsn to = below[rng.NextBounded(below.size())];
          log.EvictBelow(to);
          model.erase(model.begin(), model.upper_bound(to));
          floor = std::max(floor, to);
        }
      } else if (dice < 89) {
        const Lsn start = 1 + rng.NextBounded(620);
        const TruncationRange range{start, start + rng.NextBounded(20)};
        log.Truncate(range);
        truncations.push_back(range);
        model.erase(model.lower_bound(range.start),
                    model.upper_bound(range.end));
      } else if (dice < 96) {
        const Lsn lsn = random_stored();
        EXPECT_EQ(log.Remove(lsn), lsn != kInvalidLsn);
        model.erase(lsn);
      }
      // Probe the back and the second-to-last record with their
      // neighbours, plus one random and one stored LSN.
      std::vector<Lsn> probes = {1 + rng.NextBounded(620), random_stored()};
      if (!model.empty()) {
        const Lsn back = model.rbegin()->first;
        probes.insert(probes.end(), {back - 1, back, back + 1});
        if (model.size() > 1) {
          const Lsn second = std::next(model.rbegin())->first;
          probes.insert(probes.end(), {second - 1, second, second + 1});
        }
      }
      ASSERT_EQ(log.RecordCount(), model.size()) << "seed " << seed;
      ASSERT_EQ(log.scl(), model_scl()) << "seed " << seed;
      for (Lsn lsn : probes) {
        auto it = model.find(lsn);
        const RedoRecord* found = log.Find(lsn);
        ASSERT_EQ(log.Contains(lsn), it != model.end()) << lsn;
        ASSERT_EQ(found != nullptr, it != model.end()) << lsn;
        if (found != nullptr) {
          EXPECT_EQ(*found, *it->second);
          EXPECT_EQ(found, it->second.get()) << "the log holds the handle";
        }
        std::vector<SealedRecord> above;
        for (auto a = model.upper_bound(lsn); a != model.end() &&
                                              above.size() < 4;
             ++a) {
          above.push_back(a->second);
        }
        ASSERT_EQ(log.RecordsAbove(lsn, 4), above) << lsn;
      }
    }
  }
}

// ---------------------------------------------------------------------- //
// Boxcar

TEST(Boxcar, SubmitOnFirstDispatchesQuickly) {
  sim::Simulator sim;
  std::vector<size_t> batch_sizes;
  BoxcarOptions options;
  options.policy = BoxcarPolicy::kSubmitOnFirst;
  options.dispatch_delay = 20;
  BoxcarBatcher boxcar(&sim, options, [&](std::vector<SealedRecord> batch) {
    batch_sizes.push_back(batch.size());
  });
  boxcar.Add(Sealed(1, 0));
  sim.Schedule(5, [&]() { boxcar.Add(Sealed(2, 1)); });
  sim.Run();
  // Both records ride the single dispatch scheduled by the first.
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 2u);
  EXPECT_EQ(sim.Now(), 20);
}

TEST(Boxcar, FillOrTimeoutWaitsFullTimeout) {
  sim::Simulator sim;
  SimTime dispatched_at = -1;
  BoxcarOptions options;
  options.policy = BoxcarPolicy::kFillOrTimeout;
  options.fill_timeout = 4000;
  BoxcarBatcher boxcar(&sim, options, [&](std::vector<SealedRecord>) {
    dispatched_at = sim.Now();
  });
  boxcar.Add(Sealed(1, 0));
  sim.Run();
  EXPECT_EQ(dispatched_at, 4000) << "low-load boxcar pays the full timeout";
}

TEST(Boxcar, SizeTriggerBeatsTimer) {
  sim::Simulator sim;
  size_t dispatches = 0;
  BoxcarOptions options;
  options.policy = BoxcarPolicy::kFillOrTimeout;
  options.fill_timeout = 4000;
  options.max_batch_bytes = 3 * MakeRecord(1, 0).SerializedSize();
  BoxcarBatcher boxcar(&sim, options,
                       [&](std::vector<SealedRecord>) { dispatches++; });
  for (Lsn l = 1; l <= 3; ++l) boxcar.Add(Sealed(l, l - 1));
  EXPECT_EQ(dispatches, 1u);
  EXPECT_EQ(sim.Now(), 0);
}

TEST(Boxcar, FlushForcesDispatch) {
  sim::Simulator sim;
  size_t dispatches = 0;
  BoxcarBatcher boxcar(&sim, BoxcarOptions{},
                       [&](std::vector<SealedRecord>) { dispatches++; });
  boxcar.Add(Sealed(1, 0));
  boxcar.Flush();
  EXPECT_EQ(dispatches, 1u);
  sim.Run();
  EXPECT_EQ(dispatches, 1u) << "cancelled timer must not double-dispatch";
}

TEST(Boxcar, MeanBatchFillAccounting) {
  sim::Simulator sim;
  BoxcarBatcher boxcar(&sim, BoxcarOptions{}, [](std::vector<SealedRecord>) {});
  for (Lsn l = 1; l <= 4; ++l) boxcar.Add(Sealed(l, l - 1));
  sim.Run();
  EXPECT_EQ(boxcar.batches_sent(), 1u);
  EXPECT_EQ(boxcar.records_sent(), 4u);
  EXPECT_DOUBLE_EQ(boxcar.MeanBatchFill(), 4.0);
}

}  // namespace
}  // namespace aurora::log
