// The storage driver inside a database instance (§2.2).
//
// "Changes ... are periodically flushed to a storage driver to be made
// durable. Inside the driver, they are shuffled to individual write
// buffers for each storage node storing segments for the data volume. The
// driver asynchronously issues writes, receives acknowledgments, and
// establishes consistency points."
//
// The driver owns: per-segment boxcar batchers, the consistency tracker
// (SCL→PGCL→VCL→VDL), unacknowledged-write retransmission, read routing
// with hedging, and the epoch vector attached to every request. It never
// blocks: every interaction is an asynchronous message plus local state.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/engine/consistency_tracker.h"
#include "src/engine/read_router.h"
#include "src/log/boxcar.h"
#include "src/log/record.h"
#include "src/quorum/geometry.h"
#include "src/sim/network.h"
#include "src/storage/messages.h"
#include "src/storage/storage_node.h"

namespace aurora::engine {

struct DriverOptions {
  /// Retransmission sweep for writes missing acknowledgements; gossip
  /// usually beats it, so this is a safety net.
  SimDuration retry_interval = 50 * kMillisecond;
  /// Overall deadline for one routed read (hedges included). Requests to
  /// crashed nodes are silently lost; without a deadline a read against a
  /// fully dark protection group would hang forever.
  SimDuration read_deadline = 5 * kSecond;
  ReadRouterOptions router;
  /// While a PG is degraded, its writes park in `retained_` awaiting
  /// quorum. The bound applies per degraded PG: once any degraded PG
  /// holds this many parked records the instance backpressures (rejects
  /// new writes) instead of growing memory without limit. Healthy-PG
  /// traffic never counts against the budget.
  size_t max_parked_records = 8192;
};

struct DriverStats {
  uint64_t records_sent = 0;
  uint64_t write_requests = 0;
  uint64_t acks_received = 0;
  uint64_t stale_epoch_acks = 0;
  uint64_t retransmissions = 0;
  uint64_t reads_issued = 0;
  uint64_t read_failures = 0;
  uint64_t degraded_entries = 0;
  /// Consistency-point passes executed: one per successful ack.
  uint64_t advance_passes = 0;
};

/// Asynchronous quorum-write / routed-read client for one database
/// instance. Recreated from scratch on crash recovery (all state here is
/// the "local ephemeral state" of §2.4).
class StorageDriver {
 public:
  using AdvanceCallback = std::function<void()>;
  using FencedCallback = std::function<void()>;
  using ReadCallback = std::function<void(Result<storage::Page>)>;

  StorageDriver(sim::Simulator* sim, sim::Network* network, NodeId self,
                storage::NodeResolver resolver, DriverOptions options = {});

  /// Installs the volume geometry and epoch vector; (re)configures the
  /// tracker's quorum shapes. Call at open and after membership changes
  /// or volume growth.
  void SetGeometry(const quorum::VolumeGeometry& geometry,
                   VolumeEpoch volume_epoch);
  void UpdatePgConfig(const quorum::PgConfig& config);

  const quorum::VolumeGeometry& geometry() const { return geometry_; }
  VolumeEpoch volume_epoch() const { return volume_epoch_; }

  /// Called whenever VCL/VDL advance (wakes the commit thread, §2.3).
  void SetAdvanceCallback(AdvanceCallback cb) { on_advance_ = std::move(cb); }
  /// Called when storage rejects this instance's epoch: a newer
  /// incarnation exists and this one is boxed out (§2.4).
  void SetFencedCallback(FencedCallback cb) { on_fenced_ = std::move(cb); }
  /// Called for every successful write acknowledgement — in-band liveness
  /// evidence consumed by the health monitor.
  void SetAckObserver(std::function<void(SegmentId, bool)> cb) {
    ack_observer_ = std::move(cb);
  }

  /// Source of the instance's minimum read point (PGMRPL, §3.4). Every
  /// write request carries it, clamped to the target group's PGCL, so
  /// storage can fold and collect versions under write-only load.
  void SetPgmrplSource(std::function<Lsn()> source) {
    pgmrpl_source_ = std::move(source);
  }

  /// Submits a chained batch of records (one MTR or commit record). The
  /// records must carry already-allocated LSNs and PG assignments.
  void SubmitRecords(const std::vector<log::SealedRecord>& records);

  /// Reads the durable version of `block` at `read_lsn` from the best
  /// eligible segment, hedging on slowness (§3.1). `pgmrpl` piggybacks
  /// the instance's minimum read point.
  void ReadBlock(BlockId block, Lsn read_lsn, Lsn pgmrpl, ReadCallback cb);

  /// Starts the retransmission sweep timer.
  void Start();
  /// Stops issuing (fenced or crashed). In-flight callbacks are dropped.
  void Stop();

  /// True once this driver has seen a write ack proving the segment
  /// finished hydrating. kUnknown (no ack yet) reads as false; the read
  /// path only *excludes* segments known to be mid-hydration, so the
  /// conservative default never changes routing for healthy segments.
  bool SegmentKnownHydrated(SegmentId segment) const;

  // -- Degraded mode (write-quorum loss; DESIGN.md §7) --------------------
  /// False while some degraded PG's parked-record budget is exhausted:
  /// the instance must backpressure new writes. The refusal is
  /// necessarily instance-wide (admission happens before the target PG
  /// is known), but the budget counts only records parked on degraded
  /// PGs, so healthy-PG throughput cannot trip it.
  bool AcceptingWrites() const;
  size_t DegradedPgCount() const { return degraded_since_.size(); }
  /// Records retained for PGs currently degraded — the memory actually
  /// parked awaiting write-quorum recovery (in-flight records of healthy
  /// PGs are excluded).
  size_t ParkedRecords() const;

  ConsistencyTracker& tracker() { return tracker_; }
  const DriverStats& stats() const { return stats_; }
  Histogram& write_ack_latency() { return write_ack_latency_; }
  Histogram& read_latency() { return read_latency_; }
  /// Sim-time gaps between successive VCL / VDL advances: the cadence of
  /// the local consistency-point bookkeeping (§2.3).
  Histogram& vcl_advance_gap() { return vcl_advance_gap_; }
  Histogram& vdl_advance_gap() { return vdl_advance_gap_; }
  /// Per-PG degraded-mode dwell: entry → write-quorum recovery.
  Histogram& degraded_stall() { return degraded_stall_; }
  /// Records retained above VCL (the retransmission buffer depth).
  size_t RetainedRecords() const { return retained_.size(); }
  ReadRouter& router() { return router_; }

  /// The storage-node directory this driver's calls resolve through.
  const storage::NodeResolver& resolver() const { return resolver_; }

 private:
  /// What the last write ack said about the segment's hydration. Unknown
  /// until the first ack (fresh channel or fresh driver after recovery).
  enum class ChannelHydration { kUnknown, kHydrated, kHydrating };

  struct SegmentChannel {
    quorum::SegmentInfo info;
    ProtectionGroupId pg = 0;
    std::unique_ptr<log::BoxcarBatcher> boxcar;
    Lsn max_sent = kInvalidLsn;
    ChannelHydration hydration = ChannelHydration::kUnknown;
  };

  /// Per-PG progress watch feeding degraded-mode detection.
  struct QuorumWatch {
    Lsn oldest = kInvalidLsn;
    SimTime since = 0;
  };

  void EnsureChannels(const quorum::PgConfig& config);
  void SendBatch(SegmentChannel* channel,
                 std::vector<log::SealedRecord> records);
  void HandleAck(SegmentChannel* channel, const storage::WriteAck& ack,
                 SimTime sent_at);
  /// The volume-wide consistency-point pass: tracker advance + retained
  /// pruning + degraded re-evaluation + commit wakeup. Runs on every
  /// successful ack.
  void AdvancePass();
  void RetrySweep();
  void UpdateDegraded();
  void ClearDegraded(ProtectionGroupId pg, SimTime now);
  void IssueRead(std::shared_ptr<struct ReadState> state, size_t rank_index);

  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId self_;
  storage::NodeResolver resolver_;
  DriverOptions options_;
  quorum::VolumeGeometry geometry_;
  VolumeEpoch volume_epoch_ = 0;
  bool running_ = false;

  ConsistencyTracker tracker_;
  ReadRouter router_;
  Rng rng_;

  std::map<SegmentId, SegmentChannel> channels_;
  /// Records not yet known globally durable (lsn > VCL): the
  /// retransmission source. LSNs are allocated monotonically by this
  /// instance, so the deque stays sorted — O(1) append on submit, O(1)
  /// front-pruning as VCL advances, binary search for retransmission.
  std::deque<log::SealedRecord> retained_;
  /// Per-PG slice of `retained_` (kept in lockstep with the deque) so
  /// degraded-mode backpressure can budget each degraded PG's parked
  /// records without charging healthy-PG traffic.
  std::map<ProtectionGroupId, size_t> retained_by_pg_;

  AdvanceCallback on_advance_;
  FencedCallback on_fenced_;
  std::function<void(SegmentId, bool)> ack_observer_;
  std::function<Lsn()> pgmrpl_source_;
  /// PGs currently degraded (write quorum stalled) → when they entered.
  std::map<ProtectionGroupId, SimTime> degraded_since_;
  std::map<ProtectionGroupId, QuorumWatch> quorum_watch_;
  DriverStats stats_;
  Histogram write_ack_latency_;
  Histogram read_latency_;
  Histogram vcl_advance_gap_;
  Histogram vdl_advance_gap_;
  Histogram degraded_stall_;
  SimTime last_vcl_advance_at_ = 0;
  SimTime last_vdl_advance_at_ = 0;
};

}  // namespace aurora::engine
