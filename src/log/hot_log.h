// Per-segment "hot log": the storage-node-resident portion of the redo log
// that has not yet been coalesced into data blocks.
//
// Implements the SCL (Segment Complete LSN) bookkeeping of §2.3: SCL is the
// inclusive upper bound on log records continuously linked through the
// segment chain without gaps. Because writes may be lost for any reason,
// records arrive out of order and with holes; SCL only advances along the
// unbroken chain, and the gap structure drives peer gossip.
//
// Storage is a FLAT monotonic structure, not a node-based map: a single
// writer allocates LSNs monotonically, so records arrive (mostly) in
// ascending order. They live in a deque sorted by LSN, one 24-byte entry
// per record: the LSN and segment back-pointer inline (the only fields
// the chain walk and the searches read) beside the sealed handle every
// other holder of the record shares — appends at the
// back are O(1) with no per-record node allocation, the rare out-of-order
// arrival inserts at its sorted position, lookups at the tail are O(1) and
// binary searches elsewhere, and GC pops a prefix. The segment chain needs
// no edge map either: in sorted order, record i+1 extends the chain iff
// its prev_lsn_segment equals record i's LSN. Chain-walk anchoring below
// the GC floor uses the last evicted record (everything up to it was
// chain-complete when evicted).

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/log/record.h"

namespace aurora::log {

/// A truncation range recorded during crash recovery (§2.4): all records
/// with LSN in [start, end] are annulled, even if in-flight writes for them
/// land after recovery completes.
struct TruncationRange {
  Lsn start = kInvalidLsn;  // first annulled LSN
  Lsn end = kInvalidLsn;    // last annulled LSN (inclusive)
  bool Annuls(Lsn lsn) const {
    return start != kInvalidLsn && lsn >= start && lsn <= end;
  }
  bool operator==(const TruncationRange&) const = default;
};

/// Storage for one segment's redo records, with chain-based completeness
/// tracking.
class SegmentHotLog {
 public:
  /// Appends a record. Idempotent: re-appending an LSN already present is
  /// OK (quorum writes retry). Records annulled by a truncation range are
  /// silently ignored (§2.4: in-flight operations completing during crash
  /// recovery must be ignored).
  Status Append(SealedRecord record);

  /// Segment Complete LSN: highest LSN reachable from the chain start with
  /// no gaps. kInvalidLsn if nothing is complete yet.
  Lsn scl() const { return scl_; }

  bool Contains(Lsn lsn) const;
  const RedoRecord* Find(Lsn lsn) const;

  size_t RecordCount() const { return records_.size(); }
  uint64_t TotalBytes() const { return total_bytes_; }
  /// Times SCL moved (an append or rewind extended the chain, §2.3).
  uint64_t scl_advances() const { return scl_advances_; }

  /// Records on the segment chain strictly above `from_scl`, in chain
  /// order, up to `max_records`. This is the gossip reply (§2.3): a peer
  /// advertises its SCL and receives the records it is missing.
  std::vector<SealedRecord> ChainAfter(Lsn from_scl,
                                       size_t max_records) const;

  /// Records held above the current SCL (the out-of-order tail); used by
  /// gossip to also fill holes below a stalled chain head.
  std::vector<SealedRecord> RecordsAbove(Lsn lsn, size_t max_records) const;

  /// Records in [lo, hi], LSN order, up to `max_records` (backup reads).
  std::vector<SealedRecord> RecordsInRange(
      Lsn lo, Lsn hi, size_t max_records = SIZE_MAX) const;

  /// One stored record: its chain fields inline, the rest behind the
  /// shared handle.
  struct Entry {
    Lsn lsn = kInvalidLsn;
    Lsn prev_lsn_segment = kInvalidLsn;
    SealedRecord record;
  };

  static_assert(sizeof(Entry) <= 24, "a hot-log entry is two LSNs and a handle");

  /// Every stored record, LSN order (scrub walks them in place).
  const std::deque<Entry>& records() const { return records_; }

  /// Installs a truncation range: drops stored records inside it and
  /// refuses future appends inside it. Ranges accumulate across repeated
  /// crash recoveries.
  void Truncate(const TruncationRange& range);

  const std::vector<TruncationRange>& truncations() const {
    return truncations_;
  }

  /// Drops records at or below `lsn` that have been coalesced and backed
  /// up (GC, §2.1 activity 7). Chain completeness below SCL is preserved
  /// logically by remembering the GC floor.
  void EvictBelow(Lsn lsn);

  /// Removes one record (scrub found it corrupt). SCL rewinds if the
  /// removal breaks the chain; gossip is expected to re-fill the hole.
  /// Returns true if the record was present.
  bool Remove(Lsn lsn);

  /// Test hook: replaces a stored record with a copy whose first payload
  /// byte is flipped and whose crc is the original's. Copy-on-write —
  /// sealed blocks are shared across the fleet, so only THIS segment's
  /// handle changes and peers keep the good block.
  bool CorruptPayloadForTest(Lsn lsn);

  Lsn gc_floor() const { return gc_floor_; }

 private:
  using Iter = std::deque<Entry>::const_iterator;

  /// First stored record with LSN >= lsn: O(1) when that is the back or
  /// past it, else a binary search (deque iterators are random-access).
  Iter LowerBound(Lsn lsn) const;
  void AdvanceScl();
  /// Recomputes SCL from the chain anchor after a removal mid-chain.
  void RewindScl();
  bool Annulled(Lsn lsn) const;

  /// Sorted by LSN; contiguous prefix is the chain, back is the
  /// out-of-order tail.
  std::deque<Entry> records_;
  Lsn scl_ = kInvalidLsn;
  Lsn gc_floor_ = kInvalidLsn;
  /// LSN of the last record GC evicted: the chain was complete through
  /// it, so a rewind restarts there. The GC floor itself may name no
  /// record of this segment (another PG's LSN, or an annulled one).
  Lsn evicted_tail_ = kInvalidLsn;
  uint64_t total_bytes_ = 0;
  uint64_t scl_advances_ = 0;
  std::vector<TruncationRange> truncations_;
};

}  // namespace aurora::log
