#include "src/log/hot_log.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace aurora::log {

SegmentHotLog::Iter SegmentHotLog::LowerBound(Lsn lsn) const {
  // In-order appends only ask about the tail: Append's duplicate check
  // looks past the back, AdvanceScl at the back itself. Answer those in
  // O(1) and binary-search the rest.
  const size_t n = records_.size();
  if (n == 0 || lsn > records_[n - 1].lsn) return records_.end();
  if (n == 1 || lsn > records_[n - 2].lsn) return records_.end() - 1;
  return std::lower_bound(
      records_.begin(), records_.end() - 1, lsn,
      [](const Entry& e, Lsn value) { return e.lsn < value; });
}

bool SegmentHotLog::Annulled(Lsn lsn) const {
  for (const auto& range : truncations_) {
    if (range.Annuls(lsn)) return true;
  }
  return false;
}

Status SegmentHotLog::Append(SealedRecord record) {
  const Lsn lsn = record->lsn;
  if (lsn == kInvalidLsn) {
    return Status::InvalidArgument("record has invalid LSN");
  }
  if (Annulled(lsn)) {
    // Late-arriving in-flight write from before a crash: annulled.
    return Status::OK();
  }
  if (lsn <= gc_floor_ && gc_floor_ != kInvalidLsn) {
    return Status::OK();  // already coalesced + collected
  }
  const uint64_t bytes = record->SerializedSize();
  Entry entry{lsn, record->prev_lsn_segment, std::move(record)};
  // Hot path: a single writer allocates LSNs monotonically, so almost
  // every arrival lands past the current back — O(1), no node allocation.
  if (records_.empty() || lsn > records_.back().lsn) {
    records_.push_back(std::move(entry));
  } else {
    const Iter it = LowerBound(lsn);
    if (it != records_.end() && it->lsn == lsn) {
      return Status::OK();  // idempotent re-delivery
    }
    // Out-of-order arrival (gossip fill, retransmission): sorted insert.
    records_.insert(records_.begin() + (it - records_.begin()),
                    std::move(entry));
  }
  total_bytes_ += bytes;
  AdvanceScl();
  return Status::OK();
}

void SegmentHotLog::AdvanceScl() {
  // In sorted order the chain is implicit: the next stored record extends
  // the chain iff its segment back-pointer equals the current SCL.
  const Lsn before = scl_;
  Iter it = LowerBound(scl_ + 1);
  while (it != records_.end() && it->prev_lsn_segment == scl_) {
    scl_ = it->lsn;
    ++it;
  }
  if (scl_ != before) scl_advances_++;
}

void SegmentHotLog::RewindScl() {
  // Everything GC evicted was chain-complete, so the walk re-anchors at
  // the last evicted record (or at the very start if nothing was ever
  // evicted).
  scl_ = evicted_tail_;
  AdvanceScl();
}

bool SegmentHotLog::Contains(Lsn lsn) const {
  const Iter it = LowerBound(lsn);
  return it != records_.end() && it->lsn == lsn;
}

const RedoRecord* SegmentHotLog::Find(Lsn lsn) const {
  const Iter it = LowerBound(lsn);
  return (it != records_.end() && it->lsn == lsn) ? it->record.get()
                                                  : nullptr;
}

std::vector<SealedRecord> SegmentHotLog::ChainAfter(Lsn from_scl,
                                                    size_t max_records) const {
  std::vector<SealedRecord> out;
  Lsn cursor = from_scl;
  for (Iter it = LowerBound(from_scl + 1);
       it != records_.end() && out.size() < max_records &&
       it->prev_lsn_segment == cursor;
       ++it) {
    out.push_back(it->record);
    cursor = it->lsn;
  }
  return out;
}

std::vector<SealedRecord> SegmentHotLog::RecordsAbove(
    Lsn lsn, size_t max_records) const {
  std::vector<SealedRecord> out;
  for (Iter it = LowerBound(lsn + 1);
       it != records_.end() && out.size() < max_records; ++it) {
    out.push_back(it->record);
  }
  return out;
}

std::vector<SealedRecord> SegmentHotLog::RecordsInRange(
    Lsn lo, Lsn hi, size_t max_records) const {
  std::vector<SealedRecord> out;
  for (Iter it = LowerBound(lo); it != records_.end() && it->lsn <= hi &&
                                 out.size() < max_records;
       ++it) {
    out.push_back(it->record);
  }
  return out;
}

void SegmentHotLog::Truncate(const TruncationRange& range) {
  if (range.start == kInvalidLsn) return;
  truncations_.push_back(range);
  // Drop stored records inside the annulled range (a contiguous run in
  // sorted order).
  const Iter lo = LowerBound(range.start);
  Iter hi = lo;
  while (hi != records_.end() && hi->lsn <= range.end) {
    total_bytes_ -= hi->record->SerializedSize();
    ++hi;
  }
  records_.erase(records_.begin() + (lo - records_.begin()),
                 records_.begin() + (hi - records_.begin()));
  if (scl_ >= range.start) {
    // SCL may not point into the annulled range; rewind to the last kept
    // record on the chain.
    RewindScl();
  }
}

bool SegmentHotLog::Remove(Lsn lsn) {
  const Iter it = LowerBound(lsn);
  if (it == records_.end() || it->lsn != lsn) return false;
  total_bytes_ -= it->record->SerializedSize();
  records_.erase(records_.begin() + (it - records_.begin()));
  if (scl_ >= lsn) {
    RewindScl();
  }
  return true;
}

bool SegmentHotLog::CorruptPayloadForTest(Lsn lsn) {
  const Iter it = LowerBound(lsn);
  if (it == records_.end() || it->lsn != lsn || it->record->payload.empty()) {
    return false;
  }
  // Copy-on-write: the sealed block is shared with every other holder of
  // this record (peers, retransmission buffers, the archive); only this
  // segment's handle may go bad. The copy keeps the original crc.
  RedoRecord damaged = *it->record;
  const std::string_view bytes = damaged.payload.view();
  damaged.payload = Payload::Build(bytes.size(), [&](char* out) {
    std::memcpy(out, bytes.data(), bytes.size());
    out[0] = static_cast<char>(out[0] ^ 0x40);
  });
  records_[it - records_.begin()].record = SealedRecord(std::move(damaged));
  return true;
}

void SegmentHotLog::EvictBelow(Lsn lsn) {
  // GC is a prefix pop — O(1) per record on the deque.
  while (!records_.empty() && records_.front().lsn <= lsn) {
    total_bytes_ -= records_.front().record->SerializedSize();
    evicted_tail_ = records_.front().lsn;
    records_.pop_front();
  }
  gc_floor_ = std::max(gc_floor_, lsn);
}

}  // namespace aurora::log
