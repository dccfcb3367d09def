#include "src/replica/read_replica.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/storage/call.h"

namespace aurora::replica {

namespace {
/// Period of the read-point report to the writer (feeds PGMRPL, §3.4).
constexpr SimDuration kReportInterval = 100 * kMillisecond;
/// How long an anchored read waits for VDL before the session falls back
/// to the writer.
constexpr SimDuration kAnchorWaitTimeout = 2 * kSecond;
}  // namespace

ReadReplica::ReadReplica(sim::Simulator* sim, sim::Network* network,
                         NodeId id, AzId az, storage::NodeResolver resolver,
                         NodeId writer,
                         const quorum::VolumeGeometry& geometry,
                         VolumeEpoch volume_epoch, ReplicaOptions options)
    : sim_(sim),
      network_(network),
      id_(id),
      az_(az),
      writer_(writer),
      reader_(
          options.cache_pages, &txns_,
          [this](BlockId block, engine::StorageDriver::ReadCallback cb) {
            driver_->ReadBlock(block, ClampToGroup(block, vdl_),
                               MinReadPoint(), std::move(cb));
          },
          [this]() { return vdl_; },
          [this](const std::string& key, const txn::ReadView& view,
                 const Status&, engine::SnapshotReader::ValueCallback cb) {
            ReadLeafFromStorage(key, view, std::move(cb));
          }) {
  network_->RegisterNode(id_, az_, this);
  driver_ = std::make_unique<engine::StorageDriver>(
      sim_, network_, id_, std::move(resolver), engine::DriverOptions{});
  driver_->SetGeometry(geometry, volume_epoch);
}

void ReadReplica::Start() {
  if (running_) return;
  running_ = true;
  driver_->Start();
  SeedHighWaterMarks();
  ReportLoop();
}

void ReadReplica::SeedHighWaterMarks() {
  // The replica attaches mid-stream: probe each group's segments so reads
  // of data written before attach know the group's chain position.
  for (const auto& pg : driver_->geometry().pgs()) {
    for (const auto& member : pg.AllMembers()) {
      storage::Call<&storage::StorageNode::HandleSegmentState>(
          network_, id_, member.node,
          storage::ResolveWith(driver_->resolver()),
          storage::SegmentStateRequest{member.id},
          [this, pg_id = pg.pg()](storage::SegmentStateResponse response) {
            if (!response.status.ok() || !response.hydrated) return;
            Lsn& mark = pg_high_water_[pg_id];
            mark = std::max(mark, response.scl);
          });
    }
  }
}

Lsn ReadReplica::ClampToGroup(BlockId block, Lsn read_lsn) const {
  auto pg = driver_->geometry().PgForBlock(block);
  if (!pg.ok()) return read_lsn;
  auto it = pg_high_water_.find(*pg);
  if (it == pg_high_water_.end()) return read_lsn;
  return std::min(read_lsn, it->second);
}

void ReadReplica::OnCrash() {
  running_ = false;
  if (driver_) driver_->Stop();
  reader_.Clear();
  FailAnchorWaiters();
  pinned_views_.clear();
  txns_ = txn::TxnManager();
  vdl_ = kInvalidLsn;
  stream_source_ = kInvalidNode;
  stream_seq_ = 0;
}

void ReadReplica::UpdateGeometry(const quorum::VolumeGeometry& geometry,
                                 VolumeEpoch volume_epoch) {
  driver_->SetGeometry(geometry, volume_epoch);
}

// ---------------------------------------------------------------------------
// Replication stream application (§3.2, §3.3)
// ---------------------------------------------------------------------------

void ReadReplica::OnReplicationEvent(const engine::ReplicationEvent& event) {
  if (!running_) return;
  if (event.shipped_at > 0) replica_lag_.Record(sim_->Now() - event.shipped_at);
  CheckStreamContinuity(event);
  switch (event.type) {
    case engine::ReplicationEvent::Type::kMtr:
      ApplyMtr(event.mtr);
      break;
    case engine::ReplicationEvent::Type::kVdlUpdate:
      if (event.vdl > vdl_) {
        vdl_ = event.vdl;
        DrainAnchorWaiters();
      }
      break;
    case engine::ReplicationEvent::Type::kCommit:
      // Commit notification (§3.4): maintain transaction commit history.
      txns_.InstallCommitNotification(event.txn, event.scn);
      break;
  }
}

void ReadReplica::CheckStreamContinuity(
    const engine::ReplicationEvent& event) {
  const bool new_stream = event.source != stream_source_;
  const bool gap = !new_stream && event.seq != stream_seq_ + 1;
  // A writer switch counts as a break too once we had a stream: events
  // the old writer shipped after our last-seen seq are unaccounted for.
  const bool broke = gap || (new_stream && stream_source_ != kInvalidNode);
  stream_source_ = event.source;
  stream_seq_ = event.seq;
  if (!broke) return;
  stats_.stream_gaps++;
  // Conservative recovery: any cached page may be silently stale (its
  // missed records would only surface as a chain mismatch when a LATER
  // record for the same block arrives, §3.2), and a gap window where VDL
  // has advanced past such a page would let an anchored read return old
  // data. Drop the cache so storage — which has the durable truth —
  // serves the next reads.
  if (reader_.cache().Size() > 0) {
    stats_.gap_cache_drops++;
    reader_.cache().Clear();
  }
}

void ReadReplica::ApplyMtr(const std::vector<log::SealedRecord>& records) {
  // MTR chunks are applied atomically to the subset of blocks in the
  // cache (§3.2). Within one simulator event, no read can interleave, so
  // applying record-by-record here IS atomic from the readers' view.
  stats_.mtrs_applied++;
  for (const log::SealedRecord& sealed : records) {
    const log::RedoRecord& record = *sealed;
    if (record.block == kInvalidBlock) continue;
    Lsn& mark = pg_high_water_[record.pg];
    mark = std::max(mark, record.lsn);
    storage::Page* page = reader_.CachedPage(record.block);
    if (page == nullptr) {
      // Redo for uncached blocks is discarded; shared storage serves them
      // on demand (§3.2).
      stats_.records_discarded_uncached++;
      continue;
    }
    if (page->page_lsn != record.prev_lsn_block) {
      // Block-chain mismatch (e.g. the replica attached mid-stream or
      // missed events while crashed): the cached copy is stale and must
      // be re-read from storage.
      reader_.cache().Erase(record.block);
      stats_.pages_invalidated++;
      continue;
    }
    Status st = ApplyRedoPayload(page, record.payload, record.lsn);
    if (!st.ok()) {
      reader_.cache().Erase(record.block);
      stats_.pages_invalidated++;
      continue;
    }
    stats_.records_applied++;
  }
}

// ---------------------------------------------------------------------------
// Reads (§3.4)
// ---------------------------------------------------------------------------

Lsn ReadReplica::MinReadPoint() const {
  const Lsn open_min = txns_.MinOpenReadLsn();
  if (open_min != kInvalidLsn) return std::min(open_min, vdl_);
  return vdl_;
}

// ---------------------------------------------------------------------------
// Anchored reads (session consistency) & pinned views
// ---------------------------------------------------------------------------

void ReadReplica::RunAtAnchor(Lsn min_lsn, std::function<void(bool)> fn) {
  if (!running_) {
    fn(false);
    return;
  }
  if (vdl_ != kInvalidLsn && vdl_ >= min_lsn) {
    fn(true);
    return;
  }
  stats_.anchor_waits++;
  auto waiter = std::make_shared<AnchorWaiter>();
  waiter->fn = std::move(fn);
  waiter->parked_at = sim_->Now();
  anchor_waiters_.emplace(min_lsn, waiter);
  waiter->timeout = sim_->Schedule(kAnchorWaitTimeout, [this, waiter]() {
    if (waiter->fired) return;
    waiter->fired = true;
    stats_.anchor_timeouts++;
    waiter->fn(false);
  });
}

void ReadReplica::DrainAnchorWaiters() {
  while (!anchor_waiters_.empty() &&
         anchor_waiters_.begin()->first <= vdl_) {
    auto waiter = anchor_waiters_.begin()->second;
    anchor_waiters_.erase(anchor_waiters_.begin());
    if (waiter->fired) continue;
    waiter->fired = true;
    sim_->Cancel(waiter->timeout);
    anchor_wait_.Record(sim_->Now() - waiter->parked_at);
    waiter->fn(true);
  }
}

void ReadReplica::FailAnchorWaiters() {
  auto parked = std::move(anchor_waiters_);
  anchor_waiters_.clear();
  for (auto& [lsn, waiter] : parked) {
    if (waiter->fired) continue;
    waiter->fired = true;
    sim_->Cancel(waiter->timeout);
    waiter->fn(false);
  }
}

void ReadReplica::GetAtAnchor(
    const std::string& key, Lsn min_lsn,
    std::function<void(Result<std::string>)> cb) {
  stats_.anchored_gets++;
  RunAtAnchor(min_lsn, [this, key, cb = std::move(cb)](bool ready) mutable {
    if (!ready) {
      cb(Status::Unavailable("replica did not reach the read anchor"));
      return;
    }
    Get(key, std::move(cb));
  });
}

void ReadReplica::ScanAtAnchor(
    const std::string& lo, const std::string& hi, size_t limit, Lsn min_lsn,
    std::function<
        void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  stats_.anchored_scans++;
  RunAtAnchor(min_lsn,
              [this, lo, hi, limit, cb = std::move(cb)](bool ready) mutable {
                if (!ready) {
                  cb(Status::Unavailable(
                      "replica did not reach the read anchor"));
                  return;
                }
                Scan(lo, hi, limit, std::move(cb));
              });
}

uint64_t ReadReplica::PinView() {
  if (!running_ || vdl_ == kInvalidLsn) return 0;
  const uint64_t handle = next_pin_handle_++;
  pinned_views_.emplace(handle, txns_.OpenReadView(vdl_));
  return handle;
}

void ReadReplica::UnpinView(uint64_t handle) {
  auto it = pinned_views_.find(handle);
  if (it == pinned_views_.end()) return;
  txns_.CloseReadView(it->second);
  pinned_views_.erase(it);
}

void ReadReplica::ReadLeafFromStorage(
    const std::string& key, const txn::ReadView& view,
    std::function<void(Result<std::string>)> cb) {
  // Fallback path: the cached image ran ahead of this view's anchor and
  // undo was not available locally (the entry's redo is above this
  // replica's VDL and the undo page is uncached). Re-read the leaf as of
  // the anchor directly from storage, bypassing the cache, which must keep
  // the newer image for the replication chain.
  stats_.storage_fallback_reads++;
  auto path = reader_.btree().FindPathSync(key);
  if (!path.ok()) {
    cb(Status::Unavailable("replica fallback: path unavailable"));
    return;
  }
  const BlockId leaf = path->back();
  driver_->ReadBlock(
      leaf, ClampToGroup(leaf, view.read_lsn()), MinReadPoint(),
      [this, key, view, cb = std::move(cb)](Result<storage::Page> page) {
        if (!page.ok()) {
          cb(page.status());
          return;
        }
        auto it = page->entries.find(key);
        if (it == page->entries.end()) {
          cb(Status::NotFound("key absent in snapshot"));
          return;
        }
        auto version = txn::DecodeRowVersion(it->second);
        if (!version.ok()) {
          cb(version.status());
          return;
        }
        reader_.ResolveVisible(key, std::move(*version), view, std::move(cb),
                               /*undo_fallback=*/false);
      });
}

void ReadReplica::Get(const std::string& key,
                      std::function<void(Result<std::string>)> cb) {
  stats_.gets++;
  if (!running_ || vdl_ == kInvalidLsn) {
    cb(Status::Unavailable("replica not ready"));
    return;
  }
  txn::ReadView view = txns_.OpenReadView(vdl_);
  const SimTime start = sim_->Now();
  reader_.Get(key, view,
              [this, view, start,
               cb = std::move(cb)](Result<std::string> result) {
                txns_.CloseReadView(view);
                read_latency_.Record(sim_->Now() - start);
                cb(std::move(result));
              });
}

void ReadReplica::Scan(
    const std::string& lo, const std::string& hi, size_t limit,
    std::function<
        void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  if (!running_ || vdl_ == kInvalidLsn) {
    cb(Status::Unavailable("replica not ready"));
    return;
  }
  txn::ReadView view = txns_.OpenReadView(vdl_);
  reader_.Scan(lo, hi, limit, view,
               [this, view, cb = std::move(cb)](
                   Result<engine::SnapshotReader::Rows> result) {
                 txns_.CloseReadView(view);
                 cb(std::move(result));
               });
}

void ReadReplica::ReportLoop() {
  if (!running_) return;
  // Report the minimum read point to the writer for PGMRPL (§3.4).
  if (reporter_) {
    const Lsn point = MinReadPoint();
    network_->Send(id_, writer_, 64,
                   [reporter = reporter_, point]() { reporter(point); });
  }
  sim_->Schedule(kReportInterval, [this]() { ReportLoop(); });
}

}  // namespace aurora::replica
