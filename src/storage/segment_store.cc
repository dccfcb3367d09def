#include "src/storage/segment_store.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

#include "src/common/logging.h"

namespace aurora::storage {

namespace {
// Binary-search comparators over the LSN-ordered pending-redo queue.
constexpr auto kLsnBelow = [](const auto& redo, Lsn lsn) {
  return redo.lsn < lsn;
};
constexpr auto kLsnAbove = [](Lsn lsn, const auto& redo) {
  return lsn < redo.lsn;
};
// The same over a block's versions, ordered by page_lsn.
constexpr auto kVersionBelow = [](const Page& page, Lsn lsn) {
  return page.page_lsn < lsn;
};
constexpr auto kVersionAbove = [](Lsn lsn, const Page& page) {
  return lsn < page.page_lsn;
};

// Adds `page` at its page_lsn unless the block has a version there.
void AddVersion(std::vector<Page>& versions, const Page& page) {
  auto pos = std::lower_bound(versions.begin(), versions.end(),
                              page.page_lsn, kVersionBelow);
  if (pos == versions.end() || pos->page_lsn != page.page_lsn) {
    versions.insert(pos, page);
  }
}
}  // namespace

SegmentStore::SegmentStore(quorum::SegmentInfo info, ProtectionGroupId pg,
                           quorum::PgConfig config, VolumeEpoch volume_epoch,
                           bool hydrated)
    : info_(info),
      pg_(pg),
      config_(std::move(config)),
      volume_epoch_(volume_epoch),
      hydrated_(hydrated) {}

Status SegmentStore::CheckEpochs(const EpochVector& epochs) {
  if (epochs.volume_epoch < volume_epoch_) {
    stats_.stale_epoch_rejections++;
    return Status::StaleEpoch("stale volume epoch " +
                              std::to_string(epochs.volume_epoch) + " < " +
                              std::to_string(volume_epoch_));
  }
  // Epochs are minted by a single authority and monotone: a newer volume
  // epoch teaches this node it missed the recovery write.
  volume_epoch_ = std::max(volume_epoch_, epochs.volume_epoch);
  if (epochs.membership_epoch < config_.epoch()) {
    stats_.stale_epoch_rejections++;
    return Status::StaleEpoch("stale membership epoch " +
                              std::to_string(epochs.membership_epoch) +
                              " < " + std::to_string(config_.epoch()));
  }
  return Status::OK();
}

void SegmentStore::IndexRecord(const log::SealedRecord& sealed) {
  const log::RedoRecord& record = *sealed;
  // Commit records carry a status-index page op and materialize like any
  // other change; only control records carry no block payload.
  if (!info_.is_full || record.type == log::RecordType::kControl ||
      record.block == kInvalidBlock) {
    return;
  }
  PendingRedo redo{record.lsn, record.block, sealed};
  // The hot log admits each LSN once and the writer allocates them in
  // order, so almost every record lands past the back; a gossip fill or
  // retransmission inserts at its sorted position.
  if (pending_.empty() || record.lsn > pending_.back().lsn) {
    pending_.push_back(std::move(redo));
    return;
  }
  auto pos =
      std::lower_bound(pending_.begin(), pending_.end(), record.lsn, kLsnBelow);
  if (pos == pending_.end() || pos->lsn != record.lsn) {
    pending_.insert(pos, std::move(redo));
  }
}

Status SegmentStore::Ingest(const std::vector<log::SealedRecord>& records,
                            RedoSource source) {
  for (const log::SealedRecord& sealed : records) {
    const log::RedoRecord& record = *sealed;
    if (record.pg != pg_) {
      return Status::InvalidArgument("record addressed to wrong PG");
    }
    if (hot_log_.Contains(record.lsn)) {
      if (source == RedoSource::kWrite) stats_.records_duplicate++;
      continue;
    }
    const size_t before = hot_log_.RecordCount();
    AURORA_RETURN_IF_ERROR(hot_log_.Append(sealed));
    if (hot_log_.RecordCount() == before) continue;  // annulled or GC'd
    if (source == RedoSource::kWrite) stats_.records_received++;
    if (source == RedoSource::kPeer) stats_.records_gossip_filled++;
    IndexRecord(sealed);
  }
  MaybeFinishHydration();
  return Status::OK();
}

size_t SegmentStore::CoalesceStep(size_t max_records) {
  if (!info_.is_full) return 0;
  // Only history every reader has passed folds (§3.4): records above
  // min(SCL, PGMRPL) stay pending and ReadPage materializes them on demand.
  const Lsn floor = std::min(hot_log_.scl(), pgmrpl_);
  if (floor == kInvalidLsn) return 0;
  // The queue is in LSN order, so what may fold is a prefix; each block's
  // records fold in its chain order.
  size_t applied = 0;
  while (!pending_.empty() && applied < max_records) {
    const PendingRedo& redo = pending_.front();
    const Lsn lsn = redo.lsn;
    if (lsn > floor) break;
    std::vector<Page>& block_versions = versions_[redo.block];
    // Fold into the newest version at or below the record. Versions
    // older than it lie below the floor, where the folded version is
    // the block's only state, so they go.
    auto base = std::upper_bound(block_versions.begin(), block_versions.end(),
                                 lsn, kVersionAbove);
    const bool has_base = base != block_versions.begin();
    if (has_base) --base;
    stats_.versions_gced += base - block_versions.begin();
    base = block_versions.erase(block_versions.begin(), base);
    const Lsn base_lsn = has_base ? base->page_lsn : kInvalidLsn;
    if (lsn == base_lsn) {
      // Already applied via on-demand materialization.
      pending_.pop_front();
      continue;
    }
    if (redo.record->prev_lsn_block != base_lsn) {
      if (!block_versions.empty() && block_versions.back().page_lsn > lsn) {
        // A newer version (absorbed from hydration) already reflects
        // this record; the history below it is not retained.
        if (has_base) {
          block_versions.erase(base);
          stats_.versions_gced++;
        }
        pending_.pop_front();
        continue;
      }
      // Hole in the block chain below this record; wait for gossip.
      break;
    }
    // In place: no version lies between the base and the record, so the
    // base becomes the version at `lsn` and keeps its position; no page
    // is copied. A payload that does not decode leaves it as it was.
    Page fresh;
    fresh.id = redo.block;
    const Status st =
        ApplyRedoPayload(has_base ? &*base : &fresh, redo.record->payload,
                         lsn);
    if (!st.ok()) {
      AURORA_ERROR << "segment " << info_.id
                   << " coalesce failed: " << st.ToString();
      break;
    }
    if (!has_base) {
      block_versions.insert(block_versions.begin(), std::move(fresh));
    }
    pending_.pop_front();
    stats_.records_coalesced++;
    applied++;
  }
  return applied;
}

const Page* SegmentStore::LatestVersionAtOrBelow(BlockId block,
                                                 Lsn lsn) const {
  auto it = versions_.find(block);
  if (it == versions_.end()) return nullptr;
  const std::vector<Page>& versions = it->second;
  auto v = std::upper_bound(versions.begin(), versions.end(), lsn,
                            kVersionAbove);
  return v == versions.begin() ? nullptr : &*std::prev(v);
}

Result<Page> SegmentStore::ReadPage(BlockId block, Lsn read_lsn) {
  if (!info_.is_full) {
    stats_.reads_rejected++;
    return Status::NotSupported("tail segments store redo only");
  }
  if (!hydrated_) {
    stats_.reads_rejected++;
    return Status::Unavailable("segment hydrating");
  }
  if (read_floor_ != kInvalidLsn && read_lsn < read_floor_) {
    stats_.reads_rejected++;
    return Status::OutOfRange("read below PGMRPL");
  }
  if (read_lsn > hot_log_.scl()) {
    stats_.reads_rejected++;
    return Status::Unavailable("read above SCL");
  }
  const Page* base = LatestVersionAtOrBelow(block, read_lsn);
  // Below the floor a writer sent, only the folded version survives. A
  // read under it is still served when the block has no record between (a
  // replica's group-clamped read point may trail that floor); it is
  // refused only when the block's history there is folded away: its
  // oldest retained version is above the read point and at or below the
  // floor, so it was folded.
  auto refuse = [&](Status status) {
    stats_.reads_rejected++;
    auto v = versions_.find(block);
    if (base == nullptr && v != versions_.end() && !v->second.empty() &&
        v->second.front().page_lsn <= pgmrpl_) {
      return Status::OutOfRange("block history below PGMRPL folded away");
    }
    return status;
  };
  // Apply this block's pending redo in (base_lsn, read_lsn] for on-demand
  // materialization along the block chain (§2.2).
  const Lsn base_lsn = base ? base->page_lsn : kInvalidLsn;
  Page page;
  if (base != nullptr) {
    page = *base;
  } else {
    page.id = block;
  }
  bool applied_any = false;
  for (auto it = std::upper_bound(pending_.begin(), pending_.end(), base_lsn,
                                  kLsnAbove);
       it != pending_.end() && it->lsn <= read_lsn; ++it) {
    if (it->block != block) continue;
    if (it->record->prev_lsn_block != page.page_lsn) {
      return refuse(
          Status::Unavailable("block chain hole during materialization"));
    }
    AURORA_RETURN_IF_ERROR(
        ApplyRedoPayload(&page, it->record->payload, it->lsn));
    applied_any = true;
  }
  if (base == nullptr && !applied_any) {
    return refuse(Status::NotFound("block has no data at or below read point"));
  }
  if (applied_any) {
    // Keep the on-demand result; once the floor passes it, coalescing
    // reaches it and drops the versions below.
    AddVersion(versions_[block], page);
  }
  stats_.reads_served++;
  return page;
}

void SegmentStore::ObservePgmrpl(Lsn pgmrpl) {
  pgmrpl_ = std::max(pgmrpl_, pgmrpl);
}

void SegmentStore::ObserveReadFloor(Lsn pgmrpl) {
  read_floor_ = std::max(read_floor_, pgmrpl);
  ObservePgmrpl(pgmrpl);
}

void SegmentStore::MarkBackedUp(Lsn lsn) {
  backup_lsn_ = std::max(backup_lsn_, lsn);
}

std::vector<log::SealedRecord> SegmentStore::PendingBackup(
    size_t max_records) const {
  // Only chain-complete records are backed up (no holes in the archive).
  return hot_log_.RecordsInRange(backup_lsn_ + 1, hot_log_.scl(),
                                 max_records);
}

size_t SegmentStore::GarbageCollect() {
  size_t removed = 0;
  // Hot-log eviction: records must be backed up AND (coalesced, for full
  // segments). The eviction point is a prefix.
  Lsn evict_to = std::min(backup_lsn_, hot_log_.scl());
  if (info_.is_full && !pending_.empty()) {
    evict_to = std::min(evict_to, pending_.front().lsn - 1);
  }
  if (evict_to != kInvalidLsn && evict_to > hot_log_.gc_floor()) {
    const size_t before = hot_log_.RecordCount();
    hot_log_.EvictBelow(evict_to);
    removed += before - hot_log_.RecordCount();
    stats_.records_gced += before - hot_log_.RecordCount();
  }
  // Version GC: older versions are reclaimed only once no reader (writer
  // instance or replica) can need them (§3.4): keep everything above
  // PGMRPL plus the newest version at or below it.
  if (pgmrpl_ != kInvalidLsn) {
    for (auto& [block, block_versions] : versions_) {
      auto keep = std::upper_bound(block_versions.begin(),
                                   block_versions.end(), pgmrpl_,
                                   kVersionAbove);
      if (keep != block_versions.begin()) --keep;
      const size_t dropped = keep - block_versions.begin();
      block_versions.erase(block_versions.begin(), keep);
      removed += dropped;
      stats_.versions_gced += dropped;
    }
  }
  return removed;
}

size_t SegmentStore::Scrub() {
  stats_.scrub_runs++;
  // Compare each stored record against the checksum its writer sealed: a
  // record damaged here, in transit or in a gossip reply fails alike.
  std::vector<Lsn> bad;
  for (const auto& entry : hot_log_.records()) {
    if (log::RecordBodyCrc(*entry.record) != entry.record->crc) {
      bad.push_back(entry.lsn);
    }
  }
  for (const Lsn lsn : bad) {
    hot_log_.Remove(lsn);
    // Drop the pending-redo entry built from the corrupt record.
    auto pending =
        std::lower_bound(pending_.begin(), pending_.end(), lsn, kLsnBelow);
    if (pending != pending_.end() && pending->lsn == lsn) {
      pending_.erase(pending);
    }
    stats_.scrub_corruptions_found++;
    AURORA_WARN << "segment " << info_.id << " scrub dropped corrupt record "
                << lsn;
  }
  return bad.size();
}

Status SegmentStore::UpdateMembership(const MembershipUpdateRequest& request) {
  // Monotone install: configs are minted by the single membership
  // authority with strictly increasing epochs, so any strictly newer
  // config is accepted (this also lets a node that missed an intermediate
  // epoch catch up). A request at or below the stored epoch is stale —
  // "clients with stale membership epochs have their requests rejected
  // and must update membership information" (§4.1).
  if (request.config.epoch() <= config_.epoch()) {
    stats_.stale_epoch_rejections++;
    return Status::StaleEpoch("membership epoch " +
                              std::to_string(request.config.epoch()) +
                              " <= " + std::to_string(config_.epoch()));
  }
  config_ = request.config;
  volume_epoch_ = std::max(volume_epoch_, request.volume_epoch);
  return Status::OK();
}

Status SegmentStore::UpdateVolumeEpoch(
    const VolumeEpochUpdateRequest& request) {
  if (request.new_epoch <= volume_epoch_) {
    stats_.stale_epoch_rejections++;
    return Status::StaleEpoch("volume epoch " +
                              std::to_string(request.new_epoch) + " <= " +
                              std::to_string(volume_epoch_));
  }
  volume_epoch_ = request.new_epoch;
  if (request.truncation.has_value()) {
    const auto& range = *request.truncation;
    hot_log_.Truncate(range);
    // Drop pending redo and materialized versions inside the annulled
    // range (§2.4: in-flight writes completing during recovery must be
    // ignored; versions built from annulled records are invalid).
    pending_.erase(std::lower_bound(pending_.begin(), pending_.end(),
                                    range.start, kLsnBelow),
                   std::upper_bound(pending_.begin(), pending_.end(),
                                    range.end, kLsnAbove));
    for (auto& [block, block_versions] : versions_) {
      block_versions.erase(
          std::lower_bound(block_versions.begin(), block_versions.end(),
                           range.start, kVersionBelow),
          block_versions.end());
    }
  }
  return Status::OK();
}

void SegmentStore::BeginHydration(Lsn target_scl) {
  hydrated_ = false;
  hydration_target_ = target_scl;
  MaybeFinishHydration();
}

void SegmentStore::MaybeFinishHydration() {
  if (!hydrated_ && hot_log_.scl() >= hydration_target_) {
    hydrated_ = true;
    AURORA_DEBUG << "segment " << info_.id << " hydrated to scl "
                 << hot_log_.scl();
  }
}

Status SegmentStore::AbsorbHydration(const HydrationResponse& response) {
  for (const auto& range : response.truncations) {
    hot_log_.Truncate(range);
  }
  AURORA_RETURN_IF_ERROR(Ingest(response.records, RedoSource::kPeer));
  // Pending redo at or below an absorbed version is already reflected in
  // it; one pass over the queue drops it for every block.
  std::unordered_map<BlockId, Lsn> absorbed;
  for (const auto& page : response.pages) {
    AddVersion(versions_[page.id], page);
    Lsn& reflected = absorbed[page.id];
    reflected = std::max(reflected, page.page_lsn);
  }
  if (!absorbed.empty()) {
    std::erase_if(pending_, [&](const PendingRedo& redo) {
      auto it = absorbed.find(redo.block);
      return it != absorbed.end() && redo.lsn <= it->second;
    });
  }
  MaybeFinishHydration();
  return Status::OK();
}

HydrationResponse SegmentStore::BuildHydration(
    const HydrationRequest& request) const {
  HydrationResponse response;
  response.status = Status::OK();
  response.truncations = hot_log_.truncations();
  constexpr size_t kMaxRecords = 4096;
  response.records = hot_log_.RecordsAbove(request.have_scl, kMaxRecords);
  if (request.need_blocks && info_.is_full) {
    // Each block ships materialized at SCL: its newest version plus the
    // chain-complete redo still pending above it, applied in one pass over
    // the queue. History below is not needed by any reader of the
    // replacement.
    struct Materializing {
      Page page;
      bool stalled = false;  // chain hole or bad payload: ship as is
    };
    std::map<BlockId, Materializing> blocks;
    for (const auto& [block, block_versions] : versions_) {
      if (!block_versions.empty()) {
        blocks[block].page = block_versions.back();
      }
    }
    for (const PendingRedo& redo : pending_) {
      if (redo.lsn > hot_log_.scl()) break;
      auto [it, inserted] = blocks.try_emplace(redo.block);
      Materializing& m = it->second;
      if (inserted) m.page.id = redo.block;
      if (m.stalled || redo.lsn <= m.page.page_lsn) continue;
      if (redo.record->prev_lsn_block != m.page.page_lsn ||
          !ApplyRedoPayload(&m.page, redo.record->payload, redo.lsn).ok()) {
        m.stalled = true;
      }
    }
    for (auto& [block, m] : blocks) {
      if (m.page.page_lsn != kInvalidLsn) {
        response.pages.push_back(std::move(m.page));
      }
    }
  }
  return response;
}

void SegmentStore::ResetToArchive(const std::vector<log::SealedRecord>& records,
                                  Lsn restore_point, VolumeEpoch new_epoch) {
  // Truncation history survives the reset: ranges annulled by earlier
  // recoveries/restores may still have records in the archive (they were
  // backed up before being annulled) and must not be resurrected.
  const std::vector<log::TruncationRange> annulled =
      hot_log_.truncations();
  // The fresh hot log counts SCL advances from zero; bank the old count.
  stats_.scl_advances += hot_log_.scl_advances();
  hot_log_ = log::SegmentHotLog();
  for (const auto& range : annulled) hot_log_.Truncate(range);
  pending_.clear();
  versions_.clear();
  pgmrpl_ = kInvalidLsn;
  read_floor_ = kInvalidLsn;
  backup_lsn_ = kInvalidLsn;
  hydrated_ = true;
  hydration_target_ = kInvalidLsn;
  volume_epoch_ = new_epoch;
  (void)Ingest(records, RedoSource::kArchive);
  // Everything the archive held was once backed up by definition.
  backup_lsn_ = hot_log_.scl();
  // Annul the old timeline above the restore point (writes archived after
  // it or still straggling through the network). The range width matches
  // the engine's truncation gap so the post-restore recovery allocates
  // new LSNs just above it.
  hot_log_.Truncate(
      log::TruncationRange{restore_point + 1, restore_point + (1ULL << 30)});
}

bool SegmentStore::CorruptRecordForTest(Lsn lsn) {
  // Sealed blocks are shared across the fleet; the hot log does a
  // copy-on-write flip so only this segment's copy goes bad.
  return hot_log_.CorruptPayloadForTest(lsn);
}

size_t SegmentStore::VersionCount(BlockId block) const {
  auto it = versions_.find(block);
  return it == versions_.end() ? 0 : it->second.size();
}

uint64_t SegmentStore::TotalVersionBytes() const {
  uint64_t bytes = 0;
  for (const auto& [block, block_versions] : versions_) {
    for (const Page& page : block_versions) bytes += page.SizeBytes();
  }
  return bytes;
}

}  // namespace aurora::storage
