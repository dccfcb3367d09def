// Aurora read replicas (§3.2–§3.4).
//
// A replica attaches to the SAME storage volume as the writer: it receives
// the physical redo stream from the writer and applies it ONLY to data
// blocks present in its local cache, in LSN order and atomically in MTR
// chunks; records for uncached blocks are discarded, since those blocks
// can always be read from shared storage (§3.2). Read views anchor at VDL
// control points shipped by the writer, and transaction visibility uses
// shipped commit notifications plus the persistent status index; MVCC
// reversion uses undo exactly as on the writer (§3.4): both read through
// one engine::SnapshotReader (src/engine/snapshot_reader.h). The replica
// fetches pages at its group-clamped VDL and its MinReadPoint, and when a
// version's undo is unreachable it re-reads the leaf from storage at the
// view's anchor.
//
// Invariants implemented here (§3.3):
//  1. replica read views lag the writer's durability points (anchor = the
//     last shipped VDL);
//  2. structural changes become visible atomically (MTR-chunk application
//     to cached blocks; chain mismatch invalidates the cached page);
//  3. read views anchor at points equivalent to writer-side points (the
//     shipped VDLs themselves).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/engine/btree.h"
#include "src/engine/buffer_cache.h"
#include "src/engine/db_instance.h"
#include "src/engine/snapshot_reader.h"
#include "src/engine/storage_driver.h"
#include "src/sim/network.h"
#include "src/txn/txn_manager.h"

namespace aurora::replica {

struct ReplicaOptions {
  size_t cache_pages = 8192;
};

struct ReplicaStats {
  uint64_t mtrs_applied = 0;
  uint64_t records_applied = 0;
  uint64_t records_discarded_uncached = 0;
  uint64_t pages_invalidated = 0;
  uint64_t gets = 0;
  uint64_t storage_fallback_reads = 0;
  uint64_t anchored_gets = 0;
  uint64_t anchored_scans = 0;
  /// Anchored reads that had to park for a VDL advance.
  uint64_t anchor_waits = 0;
  uint64_t anchor_timeouts = 0;
  /// Replication-stream continuity breaks observed (seq gap or writer
  /// switch after the first event).
  uint64_t stream_gaps = 0;
  /// Whole-cache drops forced by a stream continuity break.
  uint64_t gap_cache_drops = 0;
};

/// One read replica instance.
class ReadReplica : public sim::NodeLifecycleListener {
 public:
  ReadReplica(sim::Simulator* sim, sim::Network* network, NodeId id,
              AzId az, storage::NodeResolver resolver, NodeId writer,
              const quorum::VolumeGeometry& geometry,
              VolumeEpoch volume_epoch, ReplicaOptions options = {});

  NodeId id() const { return id_; }
  Lsn vdl() const { return vdl_; }

  /// Entry point for the writer's replication stream (delivered over the
  /// simulated network by the cluster wiring).
  void OnReplicationEvent(const engine::ReplicationEvent& event);

  /// Snapshot read anchored at the replica's VDL.
  void Get(const std::string& key,
           std::function<void(Result<std::string>)> cb);

  /// Runs `fn(true)` once this replica's VDL has reached `min_lsn`
  /// (immediately if it already has); parks otherwise and drains on VDL
  /// advances from the stream. `fn(false)` fires after
  /// kAnchorWaitTimeout (or on crash) — session consistency's escape
  /// hatch to the writer.
  void RunAtAnchor(Lsn min_lsn, std::function<void(bool)> fn);

  /// Read-your-writes read (§3.3 "read views anchor at points equivalent
  /// to writer-side points"): waits for vdl >= min_lsn, then reads.
  /// Delivers Unavailable if the anchor wait times out.
  void GetAtAnchor(const std::string& key, Lsn min_lsn,
                   std::function<void(Result<std::string>)> cb);

  /// Anchored range scan; same wait/fallback contract as GetAtAnchor.
  void ScanAtAnchor(
      const std::string& lo, const std::string& hi, size_t limit,
      Lsn min_lsn,
      std::function<void(
          Result<std::vector<std::pair<std::string, std::string>>>)>
          cb);

  /// Opens a long-running read view pinned at the current VDL. Until
  /// UnpinView, it holds this replica's MinReadPoint — and therefore the
  /// fleet-wide PGMRPL at the writer — at or below the pin, stalling
  /// version GC at the segments (§3.4). Returns 0 if the replica is not
  /// ready.
  uint64_t PinView();
  void UnpinView(uint64_t handle);
  size_t pinned_view_count() const { return pinned_views_.size(); }

  /// Snapshot range scan anchored at the replica's VDL.
  void Scan(const std::string& lo, const std::string& hi, size_t limit,
            std::function<void(
                Result<std::vector<std::pair<std::string, std::string>>>)>
                cb);

  /// Lowest LSN any request on this replica may still read.
  Lsn MinReadPoint() const;

  /// Refreshes geometry after membership changes (pushed by the cluster).
  void UpdateGeometry(const quorum::VolumeGeometry& geometry,
                      VolumeEpoch volume_epoch);

  /// Wires the periodic read-point report; the callback runs at the
  /// writer after network delivery (feeds ObserveReplicaReadPoint).
  void SetReadPointReporter(std::function<void(Lsn)> reporter) {
    reporter_ = std::move(reporter);
  }

  void Start();
  void OnCrash() override;
  void OnRestart() override {}

  const ReplicaStats& stats() const { return stats_; }
  engine::BufferCache& cache() { return reader_.cache(); }
  engine::StorageDriver* driver() { return driver_.get(); }
  Histogram& read_latency() { return read_latency_; }
  /// Ship-to-apply latency of replication stream events (§3.3 "replicas
  /// consume the redo stream asynchronously"); the sim-time analogue of
  /// the paper's sub-20ms replica lag.
  Histogram& replica_lag() { return replica_lag_; }
  /// Park → drain latency of anchored reads that waited for VDL.
  Histogram& anchor_wait() { return anchor_wait_; }

 private:
  void ApplyMtr(const std::vector<log::SealedRecord>& records);
  void ReadLeafFromStorage(const std::string& key, const txn::ReadView& view,
                           std::function<void(Result<std::string>)> cb);
  void ReportLoop();
  void SeedHighWaterMarks();
  Lsn ClampToGroup(BlockId block, Lsn read_lsn) const;
  void CheckStreamContinuity(const engine::ReplicationEvent& event);
  void DrainAnchorWaiters();
  void FailAnchorWaiters();

  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId id_;
  AzId az_;
  NodeId writer_;
  bool running_ = false;

  std::unique_ptr<engine::StorageDriver> driver_;
  txn::TxnManager txns_;
  engine::SnapshotReader reader_;

  Lsn vdl_ = kInvalidLsn;
  /// Replication-stream continuity tracking (writer + last seq seen).
  NodeId stream_source_ = kInvalidNode;
  uint64_t stream_seq_ = 0;
  /// Parked anchored reads keyed by the VDL they wait for. The shared
  /// flag arbitrates between the drain path and the timeout event; the
  /// drain cancels the timeout, so an answered wait leaves no timer.
  struct AnchorWaiter {
    std::function<void(bool)> fn;
    SimTime parked_at = 0;
    bool fired = false;
    sim::EventId timeout = sim::kInvalidEvent;
  };
  std::multimap<Lsn, std::shared_ptr<AnchorWaiter>> anchor_waiters_;
  /// Long-running pinned read views (PGMRPL pressure).
  uint64_t next_pin_handle_ = 1;
  std::map<uint64_t, txn::ReadView> pinned_views_;
  /// Highest record LSN seen per protection group (stream + probes); a
  /// block read is clamped to its group's mark, because an LSN in the
  /// global space may exceed the group's own chain position.
  std::map<ProtectionGroupId, Lsn> pg_high_water_;
  std::function<void(Lsn)> reporter_;

  ReplicaStats stats_;
  Histogram read_latency_;
  Histogram replica_lag_;
  Histogram anchor_wait_;
};

}  // namespace aurora::replica
