// Per-segment state held by a storage node: hot log, materialized block
// versions, epochs, hydration and scrub state.
//
// This implements the storage half of the paper's protocol:
//  * idempotent redo appends with SCL tracking (§2.3) — storage nodes "do
//    not have a vote in determining whether to accept a write, they must
//    do so";
//  * on-demand block materialization along the block chain (§2.2);
//  * block versions kept only between PGMRPL and SCL (§3.4): redo at or
//    below the floor folds in place into one version per block, redo
//    above it stays pending and materializes on demand;
//  * epoch validation for volume and membership fencing (§2.4, §4.1);
//  * truncation-range enforcement so in-flight writes from before a crash
//    are annulled (§2.4);
//  * tail segments that store redo only (§4.2).

#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/log/hot_log.h"
#include "src/log/record.h"
#include "src/quorum/membership.h"
#include "src/storage/messages.h"
#include "src/storage/page.h"

namespace aurora::storage {

/// Counters exposed per segment (drive the Figure-2 pipeline benchmark).
struct SegmentStats {
  uint64_t records_received = 0;
  uint64_t records_duplicate = 0;
  uint64_t records_coalesced = 0;
  uint64_t records_gossip_filled = 0;
  uint64_t records_gced = 0;
  uint64_t records_backed_up = 0;
  uint64_t reads_served = 0;
  uint64_t reads_rejected = 0;
  uint64_t stale_epoch_rejections = 0;
  uint64_t scrub_corruptions_found = 0;
  uint64_t versions_gced = 0;
  /// Anti-entropy exchanges this segment started with a peer.
  uint64_t gossip_rounds = 0;
  /// Checksum scrub passes over this segment's hot log.
  uint64_t scrub_runs = 0;
  /// Times the hot log's SCL moved (§2.3).
  uint64_t scl_advances = 0;
};

/// How a redo record reached a segment. A record is the same whichever
/// way it arrives (§2.2); the source picks only the counter it bumps.
enum class RedoSource {
  kWrite,    // the writer's write request (records_received/_duplicate)
  kPeer,     // a gossip fill or a hydration reply (records_gossip_filled)
  kArchive,  // a point-in-time restore from the archive (no counter)
};

/// One segment replica. All methods are local (the owning StorageNode
/// mediates network and disk latency).
class SegmentStore {
 public:
  SegmentStore(quorum::SegmentInfo info, ProtectionGroupId pg,
               quorum::PgConfig config, VolumeEpoch volume_epoch,
               bool hydrated = true);

  SegmentId id() const { return info_.id; }
  ProtectionGroupId pg() const { return pg_; }
  /// Owning volume (tenant); 0 in single-volume clusters. Together with
  /// pg() and id() this forms the (volume, pg, segment) key a shared
  /// segment server files this replica under.
  VolumeId volume() const { return info_.volume; }
  /// Fleet-wide archive namespace key for this segment's log: pg ids are
  /// per-volume ordinals, so the archive tier keys by (volume, pg).
  ArchiveKey archive_key() const { return MakeArchiveKey(info_.volume, pg_); }
  bool is_full() const { return info_.is_full; }
  bool hydrated() const { return hydrated_; }
  Lsn scl() const { return hot_log_.scl(); }
  VolumeEpoch volume_epoch() const { return volume_epoch_; }
  const quorum::PgConfig& config() const { return config_; }
  /// Counters, with SCL advances read from the hot log that owns SCL.
  SegmentStats stats() const {
    SegmentStats s = stats_;
    s.scl_advances += hot_log_.scl_advances();
    return s;
  }
  void CountGossipRound() { stats_.gossip_rounds++; }
  const log::SegmentHotLog& hot_log() const { return hot_log_; }

  /// Rejects requests carrying stale epochs (§4.1: "storage nodes will not
  /// accept requests at stale volume epochs"). A request at a NEWER volume
  /// epoch teaches the node the new epoch (epochs are issued by a single
  /// authority and monotone).
  Status CheckEpochs(const EpochVector& epochs);

  /// Takes in a batch of redo records (idempotent; §2.2 steps 1-3): each
  /// new one joins the hot log and the pending redo. Records addressed to
  /// another PG are refused.
  Status Ingest(const std::vector<log::SealedRecord>& records,
                RedoSource source);

  /// Gossip reply: the chain records a peer at `peer_scl` is missing.
  std::vector<log::SealedRecord> ChainAfter(Lsn peer_scl,
                                            size_t max_records) const {
    return hot_log_.ChainAfter(peer_scl, max_records);
  }

  /// Folds up to `max_records` chain-complete records at or below
  /// min(SCL, PGMRPL) in place into each block's newest version at or
  /// below the record (§2.1 activity 5); older versions of the block go.
  /// No-op for tail segments. Returns records applied.
  size_t CoalesceStep(size_t max_records);

  /// Serves a block version at or below `read_lsn`, materializing
  /// on-demand from the newest coalesced version plus hot-log records
  /// (§2.2). Only full segments serve pages, and only between PGMRPL and
  /// SCL (§3.4): a read below a floor some reader advertised is refused
  /// (OutOfRange). Below a floor only a writer sent, a read is refused
  /// only when the block's history there is folded away: its oldest
  /// retained version is above `read_lsn` and at or below PGMRPL.
  Result<Page> ReadPage(BlockId block, Lsn read_lsn);

  /// Observes the instance's minimum read point carried on a write
  /// (§3.4); coalescing folds and GC collects below it.
  void ObservePgmrpl(Lsn pgmrpl);
  /// Observes the floor a reader piggybacked on a page read: as
  /// ObservePgmrpl, and reads below it are refused outright.
  void ObserveReadFloor(Lsn pgmrpl);
  Lsn pgmrpl() const { return pgmrpl_; }

  /// Marks records at or below `lsn` as durably backed up (§2.1 act. 6).
  void MarkBackedUp(Lsn lsn);

  /// Records eligible for the next backup batch.
  std::vector<log::SealedRecord> PendingBackup(size_t max_records) const;

  /// Garbage collection (§2.1 activity 7): evicts hot-log records that are
  /// coalesced (full) or backed up, and block versions older than PGMRPL
  /// (keeping the newest version at or below it). Returns items removed.
  size_t GarbageCollect();

  /// Scrub (§2.1 activity 8): recomputes each stored record's checksum
  /// and compares it with the one the writer sealed into the record, so
  /// damage before, during or after append is caught. Corrupt records are
  /// dropped (gossip will re-fill them). Returns corruptions.
  size_t Scrub();

  /// Installs a new membership config. Accepts monotonically newer epochs
  /// from the membership authority; rejects stale or non-matching ones.
  Status UpdateMembership(const MembershipUpdateRequest& request);

  /// Installs a new volume epoch and optional truncation range (§2.4).
  Status UpdateVolumeEpoch(const VolumeEpochUpdateRequest& request);

  /// Hydration of a replacement segment (§4.2): absorb peer state. The
  /// segment reports hydrated once its SCL reaches `target_scl`.
  void BeginHydration(Lsn target_scl);
  Status AbsorbHydration(const HydrationResponse& response);

  /// Builds a hydration reply for a peer (donor side).
  HydrationResponse BuildHydration(const HydrationRequest& request) const;

  /// Point-in-time restore (§2.1 activity 6): discards ALL local state and
  /// reloads from archived records at or below `restore_point`, installing
  /// `new_epoch` and a truncation range that annuls everything above the
  /// restore point. Only records on the contiguous chain survive.
  /// `records` are this PG's archive at or below `restore_point`.
  void ResetToArchive(const std::vector<log::SealedRecord>& records,
                      Lsn restore_point, VolumeEpoch new_epoch);

  /// Test hook: flips a byte inside a stored record's payload so Scrub()
  /// finds it. Copy-on-write: only this segment's handle changes.
  bool CorruptRecordForTest(Lsn lsn);

  /// Test/inspection: number of retained versions for a block.
  size_t VersionCount(BlockId block) const;
  uint64_t TotalVersionBytes() const;
  uint64_t HotLogBytes() const { return hot_log_.TotalBytes(); }
  size_t PendingRedoCount() const { return pending_.size(); }
  /// Oldest record not yet folded (kInvalidLsn if none); GC keeps the hot
  /// log above it.
  Lsn OldestPendingLsn() const {
    return pending_.empty() ? kInvalidLsn : pending_.front().lsn;
  }

 private:
  void IndexRecord(const log::SealedRecord& record);
  void MaybeFinishHydration();
  const Page* LatestVersionAtOrBelow(BlockId block, Lsn lsn) const;

  quorum::SegmentInfo info_;
  ProtectionGroupId pg_;
  quorum::PgConfig config_;
  VolumeEpoch volume_epoch_;
  bool hydrated_ = true;
  Lsn hydration_target_ = kInvalidLsn;

  /// An un-coalesced redo record of a full segment: what folding and
  /// on-demand materialization read. The LSN and block stay inline for
  /// the searches and the per-block scans; the rest is the hot log's
  /// sealed block.
  struct PendingRedo {
    Lsn lsn = kInvalidLsn;
    BlockId block = kInvalidBlock;
    log::SealedRecord record;
  };

  log::SegmentHotLog hot_log_;
  // Un-coalesced redo of every block in one queue, in LSN order (the
  // order the single writer allocated it): coalescing folds off the
  // front, GC evicts the hot log below the front, and a block's chain is
  // the subsequence with its id.
  std::deque<PendingRedo> pending_;
  // Materialized versions per block, ascending by page_lsn: at most one
  // at or below the floor once coalesced, plus on-demand ones above it.
  // Hashed by block: every pass over all blocks is order-independent.
  std::unordered_map<BlockId, std::vector<Page>> versions_;

  Lsn pgmrpl_ = kInvalidLsn;      // highest floor observed from any request
  Lsn read_floor_ = kInvalidLsn;  // highest floor a page read advertised
  Lsn backup_lsn_ = kInvalidLsn;

  SegmentStats stats_;
};

}  // namespace aurora::storage
