#include "src/engine/storage_driver.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/storage/call.h"

namespace aurora::engine {

namespace {
/// Records one retransmission sweep resends to a single segment.
constexpr size_t kRetryBatch = 512;
/// A PG whose oldest outstanding record is stuck this long has lost its
/// write quorum (for now) and is marked degraded until it progresses.
constexpr SimDuration kDegradedAfter = 250 * kMillisecond;
}  // namespace

StorageDriver::StorageDriver(sim::Simulator* sim, sim::Network* network,
                             NodeId self, storage::NodeResolver resolver,
                             DriverOptions options)
    : sim_(sim),
      network_(network),
      self_(self),
      resolver_(std::move(resolver)),
      options_(options),
      router_(options.router),
      rng_(sim->rng().Fork()) {}

void StorageDriver::SetGeometry(const quorum::VolumeGeometry& geometry,
                                VolumeEpoch volume_epoch) {
  geometry_ = geometry;
  volume_epoch_ = volume_epoch;
  for (const auto& pg : geometry_.pgs()) {
    UpdatePgConfig(pg);
  }
}

void StorageDriver::UpdatePgConfig(const quorum::PgConfig& config) {
  (void)geometry_.UpdatePg(config);
  std::vector<SegmentId> members;
  for (const auto& m : config.AllMembers()) members.push_back(m.id);
  tracker_.ConfigurePg(config.pg(), config.WriteSet(), std::move(members));
  EnsureChannels(config);
}

void StorageDriver::EnsureChannels(const quorum::PgConfig& config) {
  for (const auto& member : config.AllMembers()) {
    auto it = channels_.find(member.id);
    if (it != channels_.end()) {
      it->second.info = member;  // node placement may have been updated
      continue;
    }
    SegmentChannel channel;
    channel.info = member;
    channel.pg = config.pg();
    channels_.emplace(member.id, std::move(channel));
    SegmentChannel* raw = &channels_[member.id];
    raw->boxcar = std::make_unique<log::BoxcarBatcher>(
        sim_, log::BoxcarOptions{},
        [this, raw](std::vector<log::SealedRecord> batch) {
          SendBatch(raw, std::move(batch));
        });
  }
}

void StorageDriver::SubmitRecords(
    const std::vector<log::SealedRecord>& records) {
  for (const log::SealedRecord& sealed : records) {
    const log::RedoRecord& record = *sealed;
    tracker_.SetMaxAllocated(record.lsn);
    tracker_.RecordIssued(record.pg, record.lsn);
    if (record.IsMtrComplete()) tracker_.RecordMtrComplete(record.lsn);
    // LSNs are allocated in ascending order; crash recovery rebuilds the
    // driver from scratch, so the deque never sees a regression.
    if (retained_.empty() || record.lsn > retained_.back()->lsn) {
      retained_.push_back(sealed);
      ++retained_by_pg_[record.pg];
    }
    // Fan out to every member (including both alternatives of a slot
    // mid-membership-change; quorum evaluation handles the algebra).
    for (const auto& slot : geometry_.Pg(record.pg).slots()) {
      for (const auto& member : slot) {
        auto it = channels_.find(member.id);
        if (it == channels_.end()) continue;
        it->second.max_sent = std::max(it->second.max_sent, record.lsn);
        it->second.boxcar->Add(sealed);
        stats_.records_sent++;
      }
    }
  }
}

void StorageDriver::SendBatch(SegmentChannel* channel,
                              std::vector<log::SealedRecord> records) {
  if (!running_) return;
  // The request moves into the RPC closure and on into the storage node:
  // the batch vector (and each record's sealed block) crosses the
  // simulated wire without duplication.
  storage::WriteRequest request;
  request.segment = channel->info.id;
  request.epochs = EpochVector{volume_epoch_,
                               geometry_.Pg(channel->pg).epoch()};
  request.records = std::move(records);
  if (pgmrpl_source_) {
    // Never advertise a floor above the group's own completion point
    // (the same clamp ReadBlock applies to its read point).
    request.pgmrpl = std::min(pgmrpl_source_(), tracker_.pgcl(channel->pg));
  }
  stats_.write_requests++;
  const SimTime sent_at = sim_->Now();
  storage::Call<&storage::StorageNode::HandleWrite>(
      network_, self_, channel->info.node, storage::ResolveWith(resolver_),
      std::move(request),
      [this, channel, sent_at](storage::WriteAck ack) {
        HandleAck(channel, ack, sent_at);
      });
}

void StorageDriver::HandleAck(SegmentChannel* channel,
                              const storage::WriteAck& ack, SimTime sent_at) {
  if (!running_) return;
  stats_.acks_received++;
  if (ack.status.IsStaleEpoch() || ack.status.IsFenced()) {
    stats_.stale_epoch_acks++;
    AURORA_WARN << "instance " << self_ << " fenced by segment "
                << ack.segment << ": " << ack.status.ToString();
    if (on_fenced_) on_fenced_();
    return;
  }
  if (!ack.status.ok()) return;
  // A successful ack carries the segment's hydration flag — the only
  // authoritative signal the driver has about mid-hydration replacements
  // (see ReadBlock's eligibility filter) — and doubles as in-band
  // liveness evidence for the health monitor.
  channel->hydration = ack.hydrated ? ChannelHydration::kHydrated
                                    : ChannelHydration::kHydrating;
  if (ack_observer_) ack_observer_(ack.segment, true);
  write_ack_latency_.Record(sim_->Now() - sent_at);
  tracker_.ObserveScl(channel->pg, ack.segment, ack.scl);
  AdvancePass();
}

void StorageDriver::AdvancePass() {
  stats_.advance_passes++;
  const Lsn vcl_before = tracker_.vcl();
  const Lsn vdl_before = tracker_.vdl();
  if (tracker_.Advance()) {
    const SimTime now = sim_->Now();
    if (tracker_.vcl() > vcl_before) {
      if (last_vcl_advance_at_ > 0) {
        vcl_advance_gap_.Record(now - last_vcl_advance_at_);
      }
      last_vcl_advance_at_ = now;
    }
    if (tracker_.vdl() > vdl_before) {
      if (last_vdl_advance_at_ > 0) {
        vdl_advance_gap_.Record(now - last_vdl_advance_at_);
      }
      last_vdl_advance_at_ = now;
    }
    // Durability advanced: drop retained records now known globally
    // durable and wake the commit path.
    while (!retained_.empty() && retained_.front()->lsn <= tracker_.vcl()) {
      auto pg_it = retained_by_pg_.find(retained_.front()->pg);
      if (pg_it != retained_by_pg_.end() && --pg_it->second == 0) {
        retained_by_pg_.erase(pg_it);
      }
      retained_.pop_front();
    }
    // Quorum progress is the degraded-mode exit signal; re-evaluating
    // here (not just in the periodic sweep) makes recovery immediate
    // once the first post-outage ack lands.
    UpdateDegraded();
    if (on_advance_) on_advance_();
  }
}

void StorageDriver::Start() {
  if (running_) return;
  running_ = true;
  sim_->Schedule(options_.retry_interval, [this]() { RetrySweep(); });
}

void StorageDriver::Stop() { running_ = false; }

void StorageDriver::RetrySweep() {
  if (!running_) return;
  for (auto& [segment_id, channel] : channels_) {
    const Lsn known_scl = tracker_.SclOf(channel.pg, segment_id);
    if (channel.max_sent == kInvalidLsn || known_scl >= channel.max_sent) {
      continue;
    }
    // Resend retained records for this PG above the segment's known SCL
    // (§2.3: missing writes are tolerated; gossip or this sweep fills
    // them).
    std::vector<log::SealedRecord> resend;
    auto it = std::lower_bound(
        retained_.begin(), retained_.end(), known_scl + 1,
        [](const log::SealedRecord& r, Lsn value) { return r->lsn < value; });
    for (; it != retained_.end() && resend.size() < kRetryBatch;
         ++it) {
      if ((*it)->pg == channel.pg) resend.push_back(*it);
    }
    if (resend.empty()) continue;
    stats_.retransmissions += resend.size();
    SendBatch(&channel, std::move(resend));
  }
  UpdateDegraded();
  sim_->Schedule(options_.retry_interval, [this]() { RetrySweep(); });
}

// ---------------------------------------------------------------------------
// Degraded mode (write-quorum loss; DESIGN.md §7)
// ---------------------------------------------------------------------------

void StorageDriver::UpdateDegraded() {
  const SimTime now = sim_->Now();
  for (const auto& [pg_id, tracking] : tracker_.pgs()) {
    const Lsn oldest = tracking.outstanding.empty()
                           ? kInvalidLsn
                           : tracking.outstanding.front();
    QuorumWatch& watch = quorum_watch_[pg_id];
    if (oldest == kInvalidLsn) {
      // Nothing outstanding: the quorum is keeping up (or idle).
      watch = QuorumWatch{};
      ClearDegraded(pg_id, now);
      continue;
    }
    if (watch.oldest != oldest || watch.since == 0) {
      // The oldest outstanding record changed since the last sweep —
      // PGCL is advancing, so the write quorum is alive.
      watch.oldest = oldest;
      watch.since = now;
      ClearDegraded(pg_id, now);
      continue;
    }
    if (now - watch.since >= kDegradedAfter &&
        !degraded_since_.contains(pg_id)) {
      degraded_since_.emplace(pg_id, now);
      stats_.degraded_entries++;
      AURORA_WARN << "instance " << self_ << ": pg " << pg_id
                  << " degraded (oldest outstanding lsn " << oldest
                  << " stalled " << (now - watch.since) << "us)";
    }
  }
}

size_t StorageDriver::ParkedRecords() const {
  size_t parked = 0;
  for (const auto& [pg, since] : degraded_since_) {
    auto it = retained_by_pg_.find(pg);
    if (it != retained_by_pg_.end()) parked += it->second;
  }
  return parked;
}

void StorageDriver::ClearDegraded(ProtectionGroupId pg, SimTime now) {
  auto it = degraded_since_.find(pg);
  if (it == degraded_since_.end()) return;
  degraded_stall_.Record(now - it->second);
  AURORA_INFO << "instance " << self_ << ": pg " << pg
              << " recovered write quorum after " << (now - it->second)
              << "us";
  degraded_since_.erase(it);
}

bool StorageDriver::AcceptingWrites() const {
  // Commits and already-submitted records keep draining through the
  // normal quorum machinery; only NEW writes are refused, and only once
  // some degraded PG's parked backlog would otherwise grow without
  // bound. The budget is per degraded PG — in-flight records of healthy
  // PGs never count — but the refusal is instance-wide, because a new
  // write's target PG is unknown at admission time (it resolves through
  // the B-tree only later).
  for (const auto& [pg, since] : degraded_since_) {
    auto it = retained_by_pg_.find(pg);
    if (it != retained_by_pg_.end() &&
        it->second >= options_.max_parked_records) {
      return false;
    }
  }
  return true;
}

bool StorageDriver::SegmentKnownHydrated(SegmentId segment) const {
  auto it = channels_.find(segment);
  return it != channels_.end() &&
         it->second.hydration == ChannelHydration::kHydrated;
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

namespace {
struct ReadStateImpl {
  BlockId block;
  Lsn read_lsn;
  Lsn pgmrpl;
  ProtectionGroupId pg;
  std::vector<SegmentId> candidates;  // ranked
  size_t next_candidate = 0;
  bool done = false;
  size_t outstanding = 0;
  StorageDriver::ReadCallback cb;
  sim::EventId deadline = sim::kInvalidEvent;
};

/// Answers a read once and cancels its deadline, so a finished read
/// leaves no timer (nor the state it pins) in the event queue.
void FinishRead(sim::Simulator* sim, ReadStateImpl& state,
                Result<storage::Page> result) {
  state.done = true;
  sim->Cancel(state.deadline);  // a no-op when the deadline is firing
  state.cb(std::move(result));
}
}  // namespace

struct ReadState : ReadStateImpl {};

void StorageDriver::ReadBlock(BlockId block, Lsn read_lsn, Lsn pgmrpl,
                              ReadCallback cb) {  // NOLINT
  auto pg = geometry_.PgForBlock(block);
  if (!pg.ok()) {
    cb(pg.status());
    return;
  }
  // Clamp the read point to this group's completion point: an LSN in the
  // global space may exceed the group's own chain position (SCL), and a
  // storage node only accepts reads at or below its SCL. No version is
  // lost: every record of this group at or below VCL is at or below its
  // PGCL.
  const Lsn group_point = tracker_.pgcl(*pg);
  if (group_point != kInvalidLsn && group_point < read_lsn) {
    read_lsn = group_point;
  }
  // The piggybacked minimum read point is a GLOBAL LSN; never advertise
  // one above the (group-clamped) read point or the node would reject the
  // read as below PGMRPL. A lower report is always safe — it only delays
  // version GC.
  if (pgmrpl != kInvalidLsn) pgmrpl = std::min(pgmrpl, read_lsn);
  const auto& config = geometry_.Pg(*pg);
  // Eligible: full segments whose last observed SCL covers the read point
  // (the §3.1 bookkeeping: we know who has the last durable version).
  std::vector<SegmentId> eligible;
  std::vector<SegmentId> fallback;
  for (const auto& member : config.AllMembers()) {
    if (!member.is_full) continue;
    // A segment the ack stream reported mid-hydration has holes below its
    // hydration target: it must not count toward read-quorum completeness
    // at all — not even as a fallback (the node also rejects such reads
    // server-side; this filter just avoids burning a hedge on it).
    auto ch = channels_.find(member.id);
    if (ch != channels_.end() &&
        ch->second.hydration == ChannelHydration::kHydrating) {
      continue;
    }
    fallback.push_back(member.id);
    if (tracker_.SclOf(*pg, member.id) >= read_lsn) {
      eligible.push_back(member.id);
    }
  }
  if (eligible.empty()) eligible = std::move(fallback);
  if (eligible.empty()) {
    cb(Status::Unavailable("no full segments for block"));
    return;
  }
  auto state = std::make_shared<ReadState>();
  state->block = block;
  state->read_lsn = read_lsn;
  state->pgmrpl = pgmrpl;
  state->pg = *pg;
  state->candidates = router_.Rank(std::move(eligible), rng_);
  state->cb = std::move(cb);
  state->deadline = sim_->Schedule(options_.read_deadline, [this, state]() {
    if (state->done) return;
    stats_.read_failures++;
    FinishRead(sim_, *state, Status::TimedOut("read deadline exceeded"));
  });
  IssueRead(state, 0);
}

void StorageDriver::IssueRead(std::shared_ptr<ReadState> state,
                              size_t rank_index) {
  if (state->done || rank_index >= state->candidates.size()) {
    if (!state->done && state->outstanding == 0) {
      stats_.read_failures++;
      FinishRead(sim_, *state,
                 Status::Unavailable("all read candidates exhausted"));
    }
    return;
  }
  const SegmentId segment = state->candidates[rank_index];
  const quorum::SegmentInfo* info =
      geometry_.Pg(state->pg).FindSegment(segment);
  if (info == nullptr) {
    IssueRead(state, rank_index + 1);
    return;
  }
  storage::ReadPageRequest request;
  request.segment = segment;
  request.epochs =
      EpochVector{volume_epoch_, geometry_.Pg(state->pg).epoch()};
  request.block = state->block;
  request.read_lsn = state->read_lsn;
  request.pgmrpl = state->pgmrpl;
  stats_.reads_issued++;
  state->outstanding++;
  const SimTime sent_at = sim_->Now();
  storage::Call<&storage::StorageNode::HandleReadPage>(
      network_, self_, info->node, storage::ResolveWith(resolver_),
      std::move(request),
      [this, state, segment, sent_at](storage::ReadPageResponse response) {
        state->outstanding--;
        if (!running_) return;
        const SimDuration elapsed = sim_->Now() - sent_at;
        if (response.status.ok()) {
          router_.ObserveLatency(segment, elapsed);
          if (!state->done) {
            read_latency_.Record(elapsed);
            FinishRead(sim_, *state, std::move(*response.page));
          }
          return;
        }
        if (response.status.IsStaleEpoch() || response.status.IsFenced()) {
          if (on_fenced_) on_fenced_();
          return;
        }
        router_.Penalize(segment);
        // Try the next candidate immediately on explicit failure.
        IssueRead(state, state->next_candidate);
      });
  // Hedge: if the response is slow, launch the next candidate in parallel
  // and take whichever returns first (§3.1 tail-latency cap).
  const SimDuration hedge_delay = router_.HedgeDelay(segment);
  const size_t hedge_index = rank_index + 1;
  sim_->Schedule(hedge_delay, [this, state, hedge_index]() {
    if (state->done || !running_) return;
    if (hedge_index >= state->candidates.size()) return;
    if (hedge_index < state->next_candidate) return;  // already issued
    router_.CountHedge();
    IssueRead(state, hedge_index);
    state->next_candidate = std::max(state->next_candidate, hedge_index + 1);
  });
  state->next_candidate = std::max(state->next_candidate, rank_index + 1);
}

}  // namespace aurora::engine
