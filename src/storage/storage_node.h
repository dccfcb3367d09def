// A storage node (segment server): hosts segments, runs the Figure-2
// activity pipeline.
//
// Foreground: (1) receive redo records, (2) append to the update queue on
// disk and acknowledge. Background: (3) sort/group into the hot log,
// (4) gossip with peers to fill holes, (5) coalesce records into data
// blocks, (6) archive to the object store, (7) garbage-collect, (8) scrub
// checksums. Crucially, storage nodes "do not have a vote in determining
// whether to accept a write, they must do so" (§2.3) — every handler is
// idempotent and works from local state only.
//
// Multi-tenancy (DESIGN.md §11): one server hosts segments from MANY
// volumes, filed under (volume, pg, segment). Incoming writes queue per
// tenant and a deficit-round-robin scheduler dispatches them to the shared
// disk, so an aggressive tenant cannot starve a quiet co-tenant's commits.
// With one tenant the scheduler degenerates to FIFO.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/network.h"
#include "src/sim/rpc.h"
#include "src/sim/simulator.h"
#include "src/storage/disk.h"
#include "src/storage/messages.h"
#include "src/storage/object_store.h"
#include "src/storage/segment_store.h"

namespace aurora::storage {

struct StorageNodeOptions {
  SimDuration gossip_interval = 100 * kMillisecond;
  SimDuration backup_interval = 100 * kMillisecond;
  SimDuration scrub_interval = 30 * kSecond;
  /// If false, no periodic timers are scheduled; tests drive stages
  /// manually via the Run*Once methods.
  bool background_enabled = true;
};

/// Per-tenant accounting on one segment server (`aurora.tenant.*` in the
/// cluster's MetricsJson()).
struct TenantStats {
  uint64_t records = 0;     ///< redo records received for this tenant
  uint64_t bytes = 0;       ///< serialized redo bytes received
  uint64_t dispatched = 0;  ///< write requests handed to the disk
  uint64_t throttled = 0;   ///< DRR turns skipped with backlog (deficit
                            ///< exhausted — fair-share deferrals)
  size_t queue_depth = 0;   ///< current DRR queue depth
};

/// Resolves a peer node id to its StorageNode instance (cluster
/// directory); the network still mediates latency and liveness.
class StorageNode;
using NodeResolver = std::function<StorageNode*(NodeId)>;

class StorageNode : public sim::NodeLifecycleListener {
 public:
  StorageNode(sim::Simulator* sim, sim::Network* network, NodeId id,
              AzId az, ObjectStore* object_store,
              StorageNodeOptions options = {});

  NodeId id() const { return id_; }
  AzId az() const { return az_; }
  SimDisk& disk() { return disk_; }

  void SetResolver(NodeResolver resolver) { resolver_ = std::move(resolver); }

  /// Hosts a new segment on this node.
  SegmentStore* AddSegment(quorum::SegmentInfo info, ProtectionGroupId pg,
                           quorum::PgConfig config, VolumeEpoch volume_epoch,
                           bool hydrated = true);

  SegmentStore* FindSegment(SegmentId segment);
  /// Tenant-qualified lookup: the (volume, pg, segment) key under which a
  /// shared segment server files each hosted replica.
  SegmentStore* FindSegment(VolumeId volume, ProtectionGroupId pg,
                            SegmentId segment);
  const std::map<SegmentId, std::unique_ptr<SegmentStore>>& segments() const {
    return segments_;
  }
  /// Accounting for one tenant (zeroes if the tenant never wrote here).
  TenantStats tenant_stats(VolumeId volume) const;
  /// Tenants with accounting state on this server, ascending.
  std::vector<VolumeId> TenantIds() const;

  /// Removes a segment (after a committed membership change away from it).
  void DropSegment(SegmentId segment);
  /// Final stats of the segments dropped from this server, so fleet
  /// totals keep counting work done before a membership change.
  const std::vector<SegmentStats>& dropped_segment_stats() const {
    return dropped_segment_stats_;
  }

  // -- RPC handlers (invoked at this node after request delivery) --------
  /// Takes the request by value: the driver moves its batch in, so the
  /// records reach the tenant queue and the disk without a copy.
  void HandleWrite(WriteRequest request, sim::ReplyFn<WriteAck> reply);
  void HandleReadPage(const ReadPageRequest& request,
                      sim::ReplyFn<ReadPageResponse> reply);
  void HandleSegmentState(const SegmentStateRequest& request,
                          sim::ReplyFn<SegmentStateResponse> reply);
  void HandleTailRecords(const TailRecordsRequest& request,
                         sim::ReplyFn<TailRecordsResponse> reply);
  void HandleGossip(const GossipRequest& request,
                    sim::ReplyFn<GossipResponse> reply);
  void HandleMembershipUpdate(const MembershipUpdateRequest& request,
                              sim::ReplyFn<MembershipUpdateResponse> reply);
  void HandleVolumeEpochUpdate(const VolumeEpochUpdateRequest& request,
                               sim::ReplyFn<VolumeEpochUpdateResponse> reply);
  void HandleHydration(const HydrationRequest& request,
                       sim::ReplyFn<HydrationResponse> reply);

  // -- Background stages (also runnable manually for tests) --------------
  void StartBackground();
  void RunGossipOnce();
  void RunCoalesceOnce();
  void RunBackupOnce();
  void RunGcOnce();
  void RunScrubOnce();

  /// Drives hydration of a local (replacement) segment by pulling from a
  /// donor peer until the segment reports hydrated (§4.2 repair).
  void StartHydrationPull(SegmentId local_segment);

  // -- Lifecycle ----------------------------------------------------------
  void OnCrash() override;
  void OnRestart() override;

  bool IsUp() const { return network_->IsUp(id_); }

 private:
  template <typename Fn>
  void Every(SimDuration interval, Fn fn);

  void GossipSegment(SegmentStore* segment);
  /// The archive fallback of gossip and hydration: fetches `segment`'s
  /// archived records from SCL + 1 to the end (recovery gaps make LSNs
  /// non-contiguous, so a bounded window above the SCL can miss
  /// everything) and ingests them as a peer's. `then` runs on the segment
  /// afterwards, unless it is gone.
  void IngestFromArchive(SegmentStore* segment,
                         std::function<void(SegmentStore*)> then);

  /// One queued (not yet dispatched) tenant write under the DRR
  /// scheduler. The reply is deferred with it: acks happen only after the
  /// scheduler grants the disk slot and the durable append completes.
  struct TenantWrite {
    WriteRequest request;
    sim::ReplyFn<WriteAck> reply;
    uint64_t cost = 1;  ///< serialized redo bytes — the DRR currency
  };

  /// A tenant's FIFO of queued writes over one reused vector: a drain
  /// and refill reuses the same storage, where a deque would free and
  /// allocate a node every other write.
  class TenantQueue {
   public:
    bool empty() const { return head_ == items_.size(); }
    size_t size() const { return items_.size() - head_; }
    TenantWrite& front() { return items_[head_]; }
    void push_back(TenantWrite entry) { items_.push_back(std::move(entry)); }
    void clear() {
      items_.clear();
      head_ = 0;
    }
    void pop_front() {
      if (++head_ == items_.size()) {
        clear();  // keeps the capacity
      } else if (head_ > items_.size() / 2) {
        // Never fully drained: drop the served prefix once it dominates.
        items_.erase(items_.begin(), items_.begin() + head_);
        head_ = 0;
      }
    }

   private:
    std::vector<TenantWrite> items_;
    size_t head_ = 0;  ///< first unserved entry
  };

  /// Per-tenant scheduler + accounting state.
  struct TenantState {
    TenantQueue queue;
    uint64_t deficit = 0;  ///< DRR credit in bytes; reset when idle
    TenantStats stats;
  };

  void EnqueueTenantWrite(SegmentStore* segment, WriteRequest request,
                          sim::ReplyFn<WriteAck> reply);
  /// DRR scan: serves the next affordable head-of-queue request, earning
  /// quanta for backlogged tenants whose turn comes up short.
  void DispatchNextTenantWrite();
  void ServeTenantWrite(TenantWrite entry);

  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId id_;
  AzId az_;
  ObjectStore* object_store_;
  StorageNodeOptions options_;
  SimDisk disk_;
  Rng rng_;
  NodeResolver resolver_;
  std::map<SegmentId, std::unique_ptr<SegmentStore>> segments_;
  std::vector<SegmentStats> dropped_segment_stats_;
  /// Tenant-qualified directory of `segments_`: (volume, pg, segment) →
  /// store. Kept in lockstep by AddSegment/DropSegment.
  std::map<std::tuple<VolumeId, ProtectionGroupId, SegmentId>, SegmentStore*>
      tenant_index_;
  /// DRR queues and per-tenant accounting, keyed by volume.
  std::map<VolumeId, TenantState> tenants_;
  /// True while a DRR dispatch→disk-completion chain is running; the
  /// chain re-arms itself until every tenant queue drains.
  bool drain_active_ = false;
  /// Next tenant to consider in round-robin order (wraps).
  VolumeId drr_cursor_ = 0;
  std::map<SegmentId, uint64_t> hydration_tokens_;
  /// Consecutive gossip rounds in which a peer was ahead of the local
  /// segment but had nothing linkable to send (its hot log was coalesced
  /// and GC'd below our SCL). Two such rounds escalate the catch-up to the
  /// archive tier; any productive or caught-up round resets the count.
  std::map<SegmentId, int> gossip_behind_rounds_;
  bool background_started_ = false;
};

}  // namespace aurora::storage
