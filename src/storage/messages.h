// Request/response message types between database instances and storage
// nodes. These are plain structs; the simulated network accounts for their
// serialized size, which feeds the network-amplification experiment (C8).

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/log/hot_log.h"
#include "src/log/record.h"
#include "src/quorum/membership.h"
#include "src/storage/page.h"

namespace aurora::storage {

/// Fixed per-message envelope overhead used for byte accounting.
inline constexpr uint64_t kMessageOverheadBytes = 64;

/// A batch of redo records addressed to one segment (§2.2 write path).
/// `pgmrpl` carries the instance's minimum read point, clamped to the
/// group's PGCL, so coalescing and version GC advance under write-only
/// load (§3.4). It rides in the fixed envelope.
struct WriteRequest {
  SegmentId segment = kInvalidSegment;
  EpochVector epochs;
  std::vector<log::SealedRecord> records;
  Lsn pgmrpl = kInvalidLsn;

  uint64_t SerializedSize() const {
    uint64_t bytes = kMessageOverheadBytes;
    for (const auto& r : records) bytes += r->SerializedSize();
    return bytes;
  }
};

/// Acknowledgement of a write (§2.3): carries the segment's current SCL so
/// the instance can advance PGCL/VCL with local bookkeeping only.
struct WriteAck {
  SegmentId segment = kInvalidSegment;
  Status status;
  Lsn scl = kInvalidLsn;
  /// Whether the segment had finished hydrating when it acked. A
  /// mid-hydration replacement accepts and acks writes (they advance its
  /// SCL), but the driver must keep it out of read routing until this
  /// flips true (hydration is monotone per segment id).
  bool hydrated = true;

  uint64_t SerializedSize() const { return kMessageOverheadBytes; }
};

/// Read of one materialized block version at or below `read_lsn` (§3.1).
/// `pgmrpl` piggybacks the instance's minimum read point so the node can
/// advance garbage collection (§3.4).
struct ReadPageRequest {
  SegmentId segment = kInvalidSegment;
  EpochVector epochs;
  BlockId block = kInvalidBlock;
  Lsn read_lsn = kInvalidLsn;
  Lsn pgmrpl = kInvalidLsn;

  uint64_t SerializedSize() const { return kMessageOverheadBytes; }
};

struct ReadPageResponse {
  Status status;
  std::optional<Page> page;

  uint64_t SerializedSize() const {
    return kMessageOverheadBytes + (page ? page->SizeBytes() : 0);
  }
};

/// Segment state probe used at volume open / crash recovery (§2.4) and by
/// repair: reports SCL and whether the segment has finished hydrating.
/// Un-hydrated segments never count toward a read quorum.
struct SegmentStateRequest {
  SegmentId segment = kInvalidSegment;

  uint64_t SerializedSize() const { return kMessageOverheadBytes; }
};

struct SegmentStateResponse {
  Status status;
  SegmentId segment = kInvalidSegment;
  Lsn scl = kInvalidLsn;
  bool hydrated = false;
  bool is_full = false;
  VolumeEpoch volume_epoch = 0;
  MembershipEpoch membership_epoch = 0;
  /// Truncation ranges this segment knows about (prior recoveries);
  /// recovery treats annulled LSNs as logically present.
  std::vector<log::TruncationRange> truncations;
  /// Records at or below this LSN were chain-complete when archived and
  /// evicted (GC); recovery counts [1, gc_floor] as present even though
  /// the hot log can no longer enumerate them.
  Lsn gc_floor = kInvalidLsn;

  uint64_t SerializedSize() const {
    return kMessageOverheadBytes + 16 * truncations.size();
  }
};

/// Fetches the (lsn, mtr-completeness, pg) shape of a segment's chain
/// above `from_lsn` — used by crash recovery to locate the ragged edge and
/// the last complete MTR without shipping payloads (§2.4).
struct TailRecordsRequest {
  SegmentId segment = kInvalidSegment;
  Lsn from_lsn = kInvalidLsn;

  uint64_t SerializedSize() const { return kMessageOverheadBytes; }
};

struct TailRecordInfo {
  Lsn lsn = kInvalidLsn;
  bool mtr_complete = false;
};

struct TailRecordsResponse {
  Status status;
  std::vector<TailRecordInfo> records;
  /// Chain-complete prefix already archived and evicted AS OF THIS REPLY.
  /// Background GC may advance between a state probe and this fetch, so
  /// recovery must take the floor from the same response as the records
  /// or evicted LSNs would look like holes.
  Lsn gc_floor = kInvalidLsn;

  uint64_t SerializedSize() const {
    return kMessageOverheadBytes + 9 * records.size();
  }
};

/// Gossip (§2.3): a segment advertises its SCL; the peer replies with the
/// chain records the requester is missing.
struct GossipRequest {
  SegmentId from_segment = kInvalidSegment;
  SegmentId to_segment = kInvalidSegment;
  Lsn scl = kInvalidLsn;

  uint64_t SerializedSize() const { return kMessageOverheadBytes; }
};

struct GossipResponse {
  Status status;
  std::vector<log::SealedRecord> records;
  /// The responder's SCL. An empty `records` with `peer_scl` above the
  /// requester's SCL means the peer is ahead but its hot log no longer
  /// holds the requester's chain continuation (coalesced and GC'd) — the
  /// requester must escalate to the archive tier to catch up.
  Lsn peer_scl = kInvalidLsn;

  uint64_t SerializedSize() const {
    uint64_t bytes = kMessageOverheadBytes;
    for (const auto& r : records) bytes += r->SerializedSize();
    return bytes;
  }
};

/// Installs a new membership config (epoch increment, §4.1). Requires the
/// caller to present the expected current epoch; stale requests bounce.
struct MembershipUpdateRequest {
  SegmentId segment = kInvalidSegment;
  MembershipEpoch expected_epoch = 0;
  quorum::PgConfig config;
  VolumeEpoch volume_epoch = 0;

  uint64_t SerializedSize() const { return kMessageOverheadBytes + 256; }
};

struct MembershipUpdateResponse {
  Status status;
  /// The config the segment holds after the request, so an installer can
  /// tell its own config (a retry's ack) from a concurrent change that
  /// reached the same epoch first.
  quorum::PgConfig config;

  uint64_t SerializedSize() const { return kMessageOverheadBytes + 256; }
};

/// Records a new volume epoch at the segment (crash recovery fencing,
/// §2.4) along with the recovery truncation range.
struct VolumeEpochUpdateRequest {
  SegmentId segment = kInvalidSegment;
  VolumeEpoch new_epoch = 0;
  std::optional<log::TruncationRange> truncation;

  uint64_t SerializedSize() const { return kMessageOverheadBytes; }
};

struct VolumeEpochUpdateResponse {
  Status status;
  VolumeEpoch current_epoch = 0;
  Lsn scl = kInvalidLsn;

  uint64_t SerializedSize() const { return kMessageOverheadBytes; }
};

/// Bulk state transfer for hydrating a replacement segment (§4.2 repair).
struct HydrationRequest {
  SegmentId from_segment = kInvalidSegment;
  SegmentId to_segment = kInvalidSegment;
  Lsn have_scl = kInvalidLsn;
  bool need_blocks = false;  // full-segment repair also copies block state

  uint64_t SerializedSize() const { return kMessageOverheadBytes; }
};

struct HydrationResponse {
  Status status;
  std::vector<log::SealedRecord> records;
  /// All retained materialized versions (full repair); versions of one
  /// block are distinguished by page_lsn.
  std::vector<Page> pages;
  /// The donor's truncation history: a fresh segment must install these
  /// BEFORE absorbing records (from the donor or the archive), or it
  /// would resurrect annulled timelines.
  std::vector<log::TruncationRange> truncations;

  uint64_t SerializedSize() const {
    uint64_t bytes = kMessageOverheadBytes;
    for (const auto& r : records) bytes += r->SerializedSize();
    for (const auto& p : pages) bytes += p.SizeBytes();
    return bytes;
  }
};

}  // namespace aurora::storage
