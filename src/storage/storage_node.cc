// StorageNode: one storage server's actor. Every peer interaction here
// (gossip, hydration pulls) goes through storage::Call, never a direct
// call into another node, so peer traffic pays link latency and honours
// partitions and liveness.

#include "src/storage/storage_node.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/storage/call.h"

namespace aurora::storage {

namespace {

/// DRR quantum: bytes of dispatch credit a backlogged tenant earns per
/// scheduling round. Every backlogged tenant earns a quantum each round,
/// so no tenant can starve (see DESIGN.md §11 for the argument). Smaller
/// = tighter fairness, larger = fewer switches. It is deliberately a few
/// redo records, not tens of KB: a backlogged tenant may burst roughly
/// quantum/record-cost consecutive disk ops when its turn comes, so the
/// quantum directly sets the co-tenant latency floor (quantum bytes /
/// disk service rate), and a 16 KB quantum would let a saturating tenant
/// hold the disk for multiple milliseconds per round (C11's
/// noisy-neighbor cell).
constexpr uint64_t kDrrQuantumBytes = 512;

/// Background pass periods (§2.1 activities 5, 7): fold often, GC rarely.
constexpr SimDuration kCoalesceInterval = 5 * kMillisecond;
constexpr SimDuration kGcInterval = 500 * kMillisecond;
/// Per-segment caps: records one coalesce pass folds, one gossip reply
/// carries and one backup pass uploads.
constexpr size_t kCoalesceBatch = 1024;
constexpr size_t kGossipBatch = 1024;
constexpr size_t kBackupBatch = 4096;

}  // namespace

StorageNode::StorageNode(sim::Simulator* sim, sim::Network* network,
                         NodeId id, AzId az, ObjectStore* object_store,
                         StorageNodeOptions options)
    : sim_(sim),
      network_(network),
      id_(id),
      az_(az),
      object_store_(object_store),
      options_(options),
      disk_(sim),
      rng_(sim->rng().Fork()) {
  network_->RegisterNode(id_, az_, this);
}

SegmentStore* StorageNode::AddSegment(quorum::SegmentInfo info,
                                      ProtectionGroupId pg,
                                      quorum::PgConfig config,
                                      VolumeEpoch volume_epoch,
                                      bool hydrated) {
  auto store = std::make_unique<SegmentStore>(info, pg, std::move(config),
                                              volume_epoch, hydrated);
  SegmentStore* raw = store.get();
  segments_[info.id] = std::move(store);
  tenant_index_[{info.volume, pg, info.id}] = raw;
  return raw;
}

SegmentStore* StorageNode::FindSegment(SegmentId segment) {
  auto it = segments_.find(segment);
  return it == segments_.end() ? nullptr : it->second.get();
}

SegmentStore* StorageNode::FindSegment(VolumeId volume, ProtectionGroupId pg,
                                       SegmentId segment) {
  auto it = tenant_index_.find({volume, pg, segment});
  return it == tenant_index_.end() ? nullptr : it->second;
}

TenantStats StorageNode::tenant_stats(VolumeId volume) const {
  auto it = tenants_.find(volume);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

std::vector<VolumeId> StorageNode::TenantIds() const {
  std::vector<VolumeId> out;
  for (const auto& [volume, state] : tenants_) out.push_back(volume);
  return out;
}

void StorageNode::DropSegment(SegmentId segment) {
  auto it = segments_.find(segment);
  if (it == segments_.end()) return;
  tenant_index_.erase(
      {it->second->volume(), it->second->pg(), it->second->id()});
  dropped_segment_stats_.push_back(it->second->stats());
  segments_.erase(it);
}

void StorageNode::HandleWrite(WriteRequest request,
                              sim::ReplyFn<WriteAck> reply) {
  SegmentStore* segment = FindSegment(request.segment);
  if (segment == nullptr) {
    reply(WriteAck{request.segment, Status::NotFound("no such segment"),
                   kInvalidLsn});
    return;
  }
  if (Status st = segment->CheckEpochs(request.epochs); !st.ok()) {
    reply(WriteAck{request.segment, std::move(st), segment->scl(),
                   segment->hydrated()});
    return;
  }
  // Only a writer at the current epochs may move the floor.
  segment->ObservePgmrpl(request.pgmrpl);
  // Multi-tenant QoS: the request joins its tenant's queue and the DRR
  // scheduler decides when it reaches the disk (DESIGN.md §11). The
  // durable append to the update queue is the only synchronous cost on
  // the ack path (§2.1 activities 1-3).
  EnqueueTenantWrite(segment, std::move(request), std::move(reply));
}

void StorageNode::EnqueueTenantWrite(SegmentStore* segment,
                                     WriteRequest request,
                                     sim::ReplyFn<WriteAck> reply) {
  TenantState& tenant = tenants_[segment->volume()];
  uint64_t cost = 0;
  for (const auto& r : request.records) cost += r->SerializedSize();
  tenant.stats.records += request.records.size();
  TenantWrite entry;
  entry.request = std::move(request);
  entry.reply = std::move(reply);
  entry.cost = std::max<uint64_t>(cost, 1);
  tenant.queue.push_back(std::move(entry));
  tenant.stats.bytes += cost;
  tenant.stats.queue_depth = tenant.queue.size();
  if (!drain_active_) {
    drain_active_ = true;
    DispatchNextTenantWrite();
  }
}

void StorageNode::DispatchNextTenantWrite() {
  // Deficit round robin (DESIGN.md §11). Each pass visits backlogged
  // tenants in ascending volume order starting at drr_cursor_. A tenant
  // whose head request fits its deficit is served (and keeps the turn
  // while credit lasts); one that cannot afford its head earns exactly
  // one quantum and yields. Starvation is impossible: every full cycle
  // adds a quantum to every backlogged tenant, so any head request
  // becomes affordable within ceil(cost / quantum) cycles, and queues
  // are FIFO within a tenant.
  while (true) {
    TenantState* pick = nullptr;
    VolumeId pick_volume = 0;
    auto it = tenants_.lower_bound(drr_cursor_);
    for (size_t hops = 0; hops <= tenants_.size(); ++hops) {
      if (it == tenants_.end()) it = tenants_.begin();
      if (it == tenants_.end()) break;  // no tenants at all
      if (!it->second.queue.empty()) {
        pick = &it->second;
        pick_volume = it->first;
        break;
      }
      ++it;
    }
    if (pick == nullptr) {
      drain_active_ = false;
      return;
    }
    TenantWrite& head = pick->queue.front();
    if (head.cost <= pick->deficit) {
      pick->deficit -= head.cost;
      TenantWrite entry = std::move(head);
      pick->queue.pop_front();
      pick->stats.queue_depth = pick->queue.size();
      pick->stats.dispatched++;
      // Classic DRR: an emptied queue forfeits residual credit, so idle
      // tenants cannot bank an unbounded burst.
      if (pick->queue.empty()) pick->deficit = 0;
      drr_cursor_ = pick_volume;
      ServeTenantWrite(std::move(entry));
      return;
    }
    // Its turn came up short: earn one quantum, count the fair-share
    // deferral, pass the turn.
    pick->deficit += kDrrQuantumBytes;
    pick->stats.throttled++;
    drr_cursor_ = pick_volume + 1;
  }
}

void StorageNode::ServeTenantWrite(TenantWrite entry) {
  // Re-resolve: the segment may have been dropped (committed membership
  // change away from it) while the request sat in the tenant queue.
  SegmentStore* segment = FindSegment(entry.request.segment);
  if (segment == nullptr) {
    entry.reply(WriteAck{entry.request.segment,
                         Status::NotFound("no such segment"), kInvalidLsn});
    DispatchNextTenantWrite();
    return;
  }
  disk_.SubmitWrite(entry.cost, [this, request = std::move(entry.request),
                                 reply = std::move(entry.reply),
                                 segment]() mutable {
    if (!IsUp()) return;  // crashed mid-I/O: OnCrash cleared the queues
    Status st = segment->Ingest(request.records, RedoSource::kWrite);
    reply(WriteAck{request.segment, std::move(st), segment->scl(),
                   segment->hydrated()});
    DispatchNextTenantWrite();
  });
}

void StorageNode::HandleReadPage(const ReadPageRequest& request,
                                 sim::ReplyFn<ReadPageResponse> reply) {
  SegmentStore* segment = FindSegment(request.segment);
  if (segment == nullptr) {
    reply(ReadPageResponse{Status::NotFound("no such segment"), {}});
    return;
  }
  if (Status st = segment->CheckEpochs(request.epochs); !st.ok()) {
    reply(ReadPageResponse{std::move(st), {}});
    return;
  }
  if (!segment->hydrated()) {
    // A mid-hydration segment has holes below its hydration target;
    // serving a page from it could silently miss committed versions, so
    // it must never count toward read-quorum completeness (§4.2). The
    // driver also filters such segments out of routing, but this check is
    // the authoritative one.
    reply(ReadPageResponse{Status::Unavailable("segment hydrating"), {}});
    return;
  }
  if (request.pgmrpl != kInvalidLsn) {
    segment->ObserveReadFloor(request.pgmrpl);
  }
  disk_.SubmitRead(4096, [this, request, reply = std::move(reply),
                          segment]() mutable {
    if (!IsUp()) return;
    auto page = segment->ReadPage(request.block, request.read_lsn);
    if (!page.ok()) {
      reply(ReadPageResponse{page.status(), {}});
      return;
    }
    reply(ReadPageResponse{Status::OK(), std::move(*page)});
  });
}

void StorageNode::HandleSegmentState(const SegmentStateRequest& request,
                                     sim::ReplyFn<SegmentStateResponse> reply) {
  SegmentStore* segment = FindSegment(request.segment);
  if (segment == nullptr) {
    SegmentStateResponse missing;
    missing.status = Status::NotFound("no such segment");
    missing.segment = request.segment;
    reply(std::move(missing));
    return;
  }
  SegmentStateResponse response;
  response.status = Status::OK();
  response.segment = segment->id();
  response.scl = segment->scl();
  response.hydrated = segment->hydrated();
  response.is_full = segment->is_full();
  response.volume_epoch = segment->volume_epoch();
  response.membership_epoch = segment->config().epoch();
  response.truncations = segment->hot_log().truncations();
  response.gc_floor = segment->hot_log().gc_floor();
  reply(std::move(response));
}

void StorageNode::HandleTailRecords(const TailRecordsRequest& request,
                                    sim::ReplyFn<TailRecordsResponse> reply) {
  SegmentStore* segment = FindSegment(request.segment);
  if (segment == nullptr) {
    reply(TailRecordsResponse{Status::NotFound("no such segment"), {}});
    return;
  }
  TailRecordsResponse response;
  response.status = Status::OK();
  response.gc_floor = segment->hot_log().gc_floor();
  for (const auto& record :
       segment->hot_log().RecordsAbove(request.from_lsn, 1 << 20)) {
    response.records.push_back(
        TailRecordInfo{record->lsn, record->IsMtrComplete()});
  }
  reply(std::move(response));
}

void StorageNode::HandleGossip(const GossipRequest& request,
                               sim::ReplyFn<GossipResponse> reply) {
  SegmentStore* segment = FindSegment(request.to_segment);
  if (segment == nullptr) {
    reply(GossipResponse{Status::NotFound("no such segment"), {}});
    return;
  }
  GossipResponse response;
  response.status = Status::OK();
  response.records = segment->ChainAfter(request.scl, kGossipBatch);
  response.peer_scl = segment->scl();
  reply(std::move(response));
}

void StorageNode::HandleMembershipUpdate(
    const MembershipUpdateRequest& request,
    sim::ReplyFn<MembershipUpdateResponse> reply) {
  SegmentStore* segment = FindSegment(request.segment);
  if (segment == nullptr) {
    reply(MembershipUpdateResponse{Status::NotFound("no such segment"), {}});
    return;
  }
  Status st = segment->UpdateMembership(request);
  reply(MembershipUpdateResponse{std::move(st), segment->config()});
}

void StorageNode::HandleVolumeEpochUpdate(
    const VolumeEpochUpdateRequest& request,
    sim::ReplyFn<VolumeEpochUpdateResponse> reply) {
  SegmentStore* segment = FindSegment(request.segment);
  if (segment == nullptr) {
    reply(VolumeEpochUpdateResponse{Status::NotFound("no such segment"), 0,
                                    kInvalidLsn});
    return;
  }
  Status st = segment->UpdateVolumeEpoch(request);
  reply(VolumeEpochUpdateResponse{std::move(st), segment->volume_epoch(),
                                  segment->scl()});
}

void StorageNode::HandleHydration(const HydrationRequest& request,
                                  sim::ReplyFn<HydrationResponse> reply) {
  SegmentStore* segment = FindSegment(request.from_segment);
  if (segment == nullptr) {
    HydrationResponse missing;
    missing.status = Status::NotFound("no such segment");
    reply(std::move(missing));
    return;
  }
  disk_.SubmitRead(64 * 1024, [reply = std::move(reply), segment, request,
                               this]() mutable {
    if (!IsUp()) return;
    reply(segment->BuildHydration(request));
  });
}

template <typename Fn>
void StorageNode::Every(SimDuration interval, Fn fn) {
  // Jittered period so nodes do not run stages in lockstep.
  const SimDuration delay =
      interval / 2 +
      static_cast<SimDuration>(rng_.NextBounded(
          static_cast<uint64_t>(std::max<SimDuration>(interval, 1))));
  sim_->Schedule(delay, [this, interval, fn]() {
    if (IsUp()) fn();
    Every(interval, fn);
  });
}

void StorageNode::StartBackground() {
  if (background_started_ || !options_.background_enabled) return;
  background_started_ = true;
  Every(options_.gossip_interval, [this]() { RunGossipOnce(); });
  Every(kCoalesceInterval, [this]() { RunCoalesceOnce(); });
  Every(options_.backup_interval, [this]() { RunBackupOnce(); });
  Every(kGcInterval, [this]() { RunGcOnce(); });
  Every(options_.scrub_interval, [this]() { RunScrubOnce(); });
}

void StorageNode::RunGossipOnce() {
  for (auto& [id, segment] : segments_) {
    GossipSegment(segment.get());
  }
}

void StorageNode::GossipSegment(SegmentStore* segment) {
  segment->CountGossipRound();
  // Pick a random peer from the current membership.
  const auto members = segment->config().AllMembers();
  std::vector<quorum::SegmentInfo> peers;
  for (const auto& m : members) {
    if (m.id != segment->id() && m.node != id_) peers.push_back(m);
  }
  if (peers.empty()) return;
  const auto& peer = peers[rng_.NextBounded(peers.size())];
  GossipRequest request{segment->id(), peer.id, segment->scl()};
  SegmentId local_id = segment->id();
  Call<&StorageNode::HandleGossip>(
      network_, id_, peer.node, ResolveWith(resolver_), std::move(request),
      [this, local_id](GossipResponse response) {
        if (!response.status.ok()) return;
        SegmentStore* local = FindSegment(local_id);
        if (local == nullptr) return;
        if (!response.records.empty()) {
          gossip_behind_rounds_.erase(local_id);
          (void)local->Ingest(response.records, RedoSource::kPeer);
          return;
        }
        if (response.peer_scl == kInvalidLsn ||
            local->scl() >= response.peer_scl) {
          gossip_behind_rounds_.erase(local_id);
          return;
        }
        // The peer is ahead but returned nothing linkable: its hot log was
        // coalesced and GC'd below our SCL, so no peer can serve the chain
        // continuation. This happens to a hydrated segment that missed
        // writes (partition/crash) whose peers have since trimmed — e.g. a
        // minority-completed tail adopted by crash recovery. Two
        // consecutive behind-and-empty rounds escalate to the archive
        // tier, the same fallback hydration uses.
        if (++gossip_behind_rounds_[local_id] < 2 ||
            object_store_ == nullptr) {
          return;
        }
        gossip_behind_rounds_.erase(local_id);
        IngestFromArchive(local, [](SegmentStore*) {});
      });
}

void StorageNode::IngestFromArchive(SegmentStore* segment,
                                    std::function<void(SegmentStore*)> then) {
  object_store_->Get(
      segment->archive_key(), segment->scl() + 1,
      std::numeric_limits<Lsn>::max(),
      [this, local_id = segment->id(),
       then = std::move(then)](std::vector<log::SealedRecord> records) {
        SegmentStore* s = FindSegment(local_id);
        if (s == nullptr) return;
        // The archive stands in for a peer that trimmed its log.
        if (!records.empty()) (void)s->Ingest(records, RedoSource::kPeer);
        then(s);
      });
}

void StorageNode::RunCoalesceOnce() {
  for (auto& [id, segment] : segments_) {
    segment->CoalesceStep(kCoalesceBatch);
  }
}

void StorageNode::RunBackupOnce() {
  if (object_store_ == nullptr) return;
  for (auto& [id, segment] : segments_) {
    auto records = segment->PendingBackup(kBackupBatch);
    if (records.empty()) continue;
    const SegmentId seg_id = id;
    object_store_->Put(segment->archive_key(), std::move(records),
                       [this, seg_id](Lsn max_lsn) {
                         SegmentStore* s = FindSegment(seg_id);
                         if (s != nullptr && max_lsn != kInvalidLsn) {
                           s->MarkBackedUp(max_lsn);
                         }
                       });
  }
}

void StorageNode::RunGcOnce() {
  for (auto& [id, segment] : segments_) {
    segment->GarbageCollect();
  }
}

void StorageNode::RunScrubOnce() {
  for (auto& [id, segment] : segments_) {
    segment->Scrub();
  }
}

void StorageNode::StartHydrationPull(SegmentId local_segment) {
  SegmentStore* segment = FindSegment(local_segment);
  if (segment == nullptr || segment->hydrated()) return;
  const uint64_t token = ++hydration_tokens_[local_segment];
  // Watchdog: a pull whose donor died mid-transfer never responds; retry
  // if no newer pull has been started by then.
  sim_->Schedule(500 * kMillisecond, [this, local_segment, token]() {
    auto it = hydration_tokens_.find(local_segment);
    if (it == hydration_tokens_.end() || it->second != token) return;
    SegmentStore* s = FindSegment(local_segment);
    if (s != nullptr && !s->hydrated()) StartHydrationPull(local_segment);
  });
  // Choose a donor: prefer a reachable full peer when we need block state.
  const bool need_blocks = segment->is_full();
  const auto members = segment->config().AllMembers();
  std::vector<quorum::SegmentInfo> donors;
  for (const auto& m : members) {
    if (m.id == segment->id()) continue;
    if (need_blocks && !m.is_full) continue;
    if (!network_->IsUp(m.node)) continue;
    donors.push_back(m);
  }
  if (donors.empty()) {
    for (const auto& m : members) {
      if (m.id != segment->id() && network_->IsUp(m.node)) donors.push_back(m);
    }
  }
  if (donors.empty()) return;
  const auto& donor = donors[rng_.NextBounded(donors.size())];
  HydrationRequest request{donor.id, local_segment, segment->scl(),
                           need_blocks};
  Call<&StorageNode::HandleHydration>(
      network_, id_, donor.node, ResolveWith(resolver_), std::move(request),
      [this, local_segment](HydrationResponse response) {
        SegmentStore* local = FindSegment(local_segment);
        if (local == nullptr) return;
        const Lsn scl_before = local->scl();
        if (response.status.ok()) {
          (void)local->AbsorbHydration(response);
        }
        if (local->hydrated()) return;
        // Progress means the chain actually advanced. A donor whose hot
        // log was garbage-collected below our position returns records we
        // cannot link; the archive must fill that prefix.
        if (local->scl() > scl_before) {
          StartHydrationPull(local_segment);
          return;
        }
        // Donor had nothing for us (evicted below its GC floor, or
        // unlucky donor choice): fall back to the archive, then retry.
        if (object_store_ != nullptr) {
          IngestFromArchive(local, [this, local_segment](SegmentStore* s) {
            if (!s->hydrated()) {
              sim_->Schedule(10 * kMillisecond, [this, local_segment]() {
                StartHydrationPull(local_segment);
              });
            }
          });
        } else {
          sim_->Schedule(10 * kMillisecond, [this, local_segment]() {
            StartHydrationPull(local_segment);
          });
        }
      });
}

void StorageNode::OnCrash() {
  // Segment state is disk-durable; nothing volatile to clear. In-flight
  // disk completions and network deliveries are guarded by IsUp checks /
  // incarnation numbers. Queued tenant writes are volatile pre-ack state:
  // dropping them is indistinguishable from losing in-flight requests
  // (the driver re-sends), and the DRR chain re-arms on the next enqueue.
  for (auto& [volume, tenant] : tenants_) {
    tenant.queue.clear();
    tenant.deficit = 0;
    tenant.stats.queue_depth = 0;
  }
  drain_active_ = false;
}

void StorageNode::OnRestart() {}

}  // namespace aurora::storage
