// The writer database instance.
//
// "Each database instance acts as a SQL endpoint and includes most of the
// components of a traditional database kernel (query processing, access
// methods, transactions, locking, buffer caching, and undo management)"
// (§2.1). Here the "SQL endpoint" is a transactional key/value API over
// the B+-tree; everything below it — MTR generation, asynchronous quorum
// writes, consistency points, commit queue, MVCC with undo, crash
// recovery with truncation and volume-epoch fencing — follows the paper.
//
// All state in this class is ephemeral ("local transient state", §2.4):
// a crash clears it, and Open() re-establishes consistency from a read
// quorum of segment SCLs.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/engine/btree.h"
#include "src/engine/buffer_cache.h"
#include "src/engine/snapshot_reader.h"
#include "src/engine/storage_driver.h"
#include "src/log/record.h"
#include "src/quorum/geometry.h"
#include "src/sim/network.h"
#include "src/storage/storage_node.h"
#include "src/txn/commit_queue.h"
#include "src/txn/lock_table.h"
#include "src/txn/read_view.h"
#include "src/txn/row_version.h"
#include "src/txn/txn_manager.h"

namespace aurora::engine {

/// Events shipped on the physical replication stream (§3.3): redo in MTR
/// chunks, VDL update control records, and commit notifications.
struct ReplicationEvent {
  enum class Type { kMtr, kVdlUpdate, kCommit };
  Type type = Type::kMtr;
  std::vector<log::SealedRecord> mtr;
  Lsn vdl = kInvalidLsn;
  TxnId txn = kInvalidTxn;
  Scn scn = kInvalidLsn;
  /// Writer-side ship time; used by replicas to measure stream lag.
  /// Excluded from SerializedSize: it is simulation bookkeeping, not
  /// payload, and must not perturb modeled bandwidth delays.
  SimTime shipped_at = 0;
  /// Stream continuity header: the shipping writer and a per-(writer,
  /// replica) sequence number starting at 1. A replica that sees a
  /// non-successor seq (or a new source) knows events were lost on the
  /// wire — its cached pages may be silently stale until each block's
  /// next record exposes the chain mismatch. Excluded from
  /// SerializedSize like shipped_at: a real stream carries this in the
  /// frame header whose cost is already part of the per-event overhead.
  NodeId source = kInvalidNode;
  uint64_t seq = 0;

  uint64_t SerializedSize() const;
};

/// Control-plane hooks into the cluster's metadata service (volume epoch
/// authority, geometry registry). Kept as callbacks so the engine does not
/// depend on the cluster assembly.
struct ControlPlane {
  /// Atomically increments and returns the volume epoch (crash recovery).
  std::function<void(std::function<void(VolumeEpoch)>)> increment_volume_epoch;
  /// Fetches the current geometry + volume epoch.
  std::function<void(
      std::function<void(quorum::VolumeGeometry, VolumeEpoch)>)>
      fetch_geometry;
};

struct DbOptions {
  /// Buffer-cache capacity in pages. Must exceed one operation's working
  /// set (tree depth + undo page + status-index leaf + meta, ~8 pages);
  /// below that, fetch/evict livelock is possible — as in any real engine
  /// whose buffer pool cannot hold a single operation's fix set.
  size_t cache_pages = 8192;
  DriverOptions driver;
  /// Undo page split threshold.
  size_t undo_entries_per_page = 64;
};

struct DbStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t scans = 0;
  uint64_t commits_acked = 0;
  uint64_t txn_aborts = 0;
  /// Read from the snapshot reader by stats().
  uint64_t undo_chain_walks = 0;
  uint64_t crash_recoveries = 0;
  uint64_t leftover_rollbacks = 0;
  /// Replication-stream events shipped, counted once per replica sink.
  uint64_t replication_events = 0;
  /// New writes refused while a degraded PG's parked-record budget was
  /// full (DESIGN.md §7.3).
  uint64_t degraded_rejected_writes = 0;
};

class DbInstance : public sim::NodeLifecycleListener {
 public:
  DbInstance(sim::Simulator* sim, sim::Network* network, NodeId id, AzId az,
             storage::NodeResolver resolver, ControlPlane control_plane,
             DbOptions options = {});

  NodeId id() const { return id_; }
  bool IsOpen() const { return open_; }
  bool IsFenced() const { return fenced_; }

  // -- Lifecycle ----------------------------------------------------------

  /// Initializes a fresh volume (writes the bootstrap MTR) and opens.
  void Bootstrap(std::function<void(Status)> cb);

  /// Opens the volume with crash recovery (§2.4): probes read quorums,
  /// recomputes VCL/VDL from SCLs, installs a truncation range and a new
  /// volume epoch, then accepts work.
  void Open(std::function<void(Status)> cb);

  /// Simulated process crash: all ephemeral state vanishes.
  void OnCrash() override;
  void OnRestart() override {}

  // -- Transactions -------------------------------------------------------

  TxnId Begin();

  void Put(TxnId txn, const std::string& key, const std::string& value,
           std::function<void(Status)> cb);
  void Delete(TxnId txn, const std::string& key,
              std::function<void(Status)> cb);

  /// Snapshot read. `txn` may be kInvalidTxn for an autocommit read
  /// (statement-level view). Delivers NotFound if the key is absent or
  /// deleted in the snapshot.
  void Get(TxnId txn, const std::string& key,
           std::function<void(Result<std::string>)> cb);

  /// Snapshot range scan over [lo, hi], up to `limit` visible rows.
  void Scan(TxnId txn, const std::string& lo, const std::string& hi,
            size_t limit,
            std::function<void(
                Result<std::vector<std::pair<std::string, std::string>>>)>
                cb);

  /// Writes the commit record and acknowledges once SCN <= VCL (§2.3).
  void Commit(TxnId txn, std::function<void(Status)> cb);

  /// Rolls back via the undo chain, then releases locks.
  void Rollback(TxnId txn, std::function<void(Status)> cb);

  // -- Replication (writer side, §3.3) ------------------------------------

  /// Registers a replica sink; events are shipped over the network.
  void AddReplicationSink(NodeId replica,
                          std::function<void(ReplicationEvent)> deliver);

  /// Replicas report their minimum read points; PGMRPL is the fleet-wide
  /// minimum (§3.4).
  void ObserveReplicaReadPoint(NodeId replica, Lsn read_point);

  // -- Introspection ------------------------------------------------------

  Lsn vcl() const { return driver_ ? driver_->tracker().vcl() : kInvalidLsn; }
  Lsn vdl() const { return driver_ ? driver_->tracker().vdl() : kInvalidLsn; }
  Lsn pgcl(ProtectionGroupId pg) const {
    return driver_ ? driver_->tracker().pgcl(pg) : kInvalidLsn;
  }
  Lsn ComputePgmrpl() const;
  Lsn next_lsn() const { return next_lsn_; }
  VolumeEpoch volume_epoch() const {
    return driver_ ? driver_->volume_epoch() : 0;
  }

  /// Highest SCN this instance has ever acknowledged to a client.
  /// Deliberately survives OnCrash(): the paper's zero-data-loss claim is
  /// exactly that recovery never loses an acked commit, so the invariant
  /// auditor checks max_acked_scn() <= VDL across writer incarnations.
  Scn max_acked_scn() const { return max_acked_scn_; }

  /// Liveness observer forwarded to the storage driver (and re-applied
  /// whenever recovery rebuilds the driver): fires (segment, ok=true) for
  /// every successful write ack. Installed by the health monitor.
  void SetAckObserver(std::function<void(SegmentId, bool)> cb) {
    ack_observer_ = std::move(cb);
    if (driver_) driver_->SetAckObserver(ack_observer_);
  }

  StorageDriver* driver() { return driver_.get(); }
  /// Visits every driver this instance has run: retired incarnations
  /// (crash recovery rebuilds the driver) in order, then the current one.
  void ForEachDriver(const std::function<void(StorageDriver&)>& fn);
  /// Last read point each replica reported (feeds PGMRPL, §3.4).
  const std::map<NodeId, Lsn>& replica_read_points() const {
    return replica_read_points_;
  }
  BufferCache& cache() { return reader_.cache(); }
  txn::TxnManager& txns() { return txns_; }
  txn::LockTable& locks() { return locks_; }
  BTree* btree() { return &reader_.btree(); }
  DbStats stats() const {
    DbStats s = stats_;
    s.undo_chain_walks = reader_.undo_chain_walks();
    return s;
  }
  Histogram& commit_latency() { return commit_latency_; }
  size_t CommitQueueDepth() const { return commit_queue_.Size(); }
  Scn MinPendingCommitScn() const { return commit_queue_.MinPendingScn(); }

  /// Direct MTR append — used by scripted benches (Figure 3) and the
  /// bootstrap path. Records are built, applied to cache, and submitted.
  Lsn AppendMtr(const std::vector<StagedOp>& ops, TxnId txn,
                log::RecordType type = log::RecordType::kData);

 private:
  struct RecoveryState;

  void InitComponents(const quorum::VolumeGeometry& geometry,
                      VolumeEpoch epoch);
  void RetireDriver();

  // Write-path helpers.
  /// OK if `txn` may write now: the instance is open and not refusing
  /// writes under degraded-mode backpressure, and `txn` is active.
  Status CheckWritable(TxnId txn);
  void PutInternal(TxnId txn, std::string key, std::string value,
                   bool deleted, std::function<void(Status)> cb, int retries);
  void ApplyWrite(txn::Transaction* txn, const std::string& key,
                  const std::string& value, bool deleted,
                  const std::vector<BlockId>& path,
                  std::optional<txn::RowVersion> existing,
                  std::function<void(Status)> cb);
  BlockId AllocateBlock(std::vector<StagedOp>* ops);
  Result<std::pair<BlockId, std::string>> StageUndo(
      txn::Transaction* txn, const std::string& key,
      const std::optional<txn::RowVersion>& existing,
      std::vector<StagedOp>* ops);

  // Undo: live rollback and crashed-writer cleanup (undo "in parallel
  // with user activity", §2.4) share one compensation rule.
  /// Compensates each row of `txn`'s undo chain from `ptr`, newest first.
  void RollbackFrom(TxnId txn, txn::UndoPtr ptr,
                    std::function<void(Status)> cb);
  /// The one compensation rule. `undo` is the undo pointer of `txn`'s
  /// version of a row: restores the row to its newest version written by
  /// another transaction, or erases it if there is none, in one MTR under
  /// `txn`. A row whose newest version is not `txn`'s is left alone.
  void Compensate(TxnId txn, txn::UndoPtr undo,
                  std::function<void(Status)> cb);
  void ReadUndo(txn::UndoPtr ptr,
                std::function<void(Result<txn::UndoEntry>)> cb);

  // Commit-path helpers.
  void FinishCommit(TxnId txn, std::function<void(Status)> cb);
  /// Closes the read view a transaction held across its statements.
  void CloseTxnView(TxnId txn);
  void OnDurabilityAdvance();
  void ShipReplicationEvent(ReplicationEvent event);

  // Recovery: the sends, timers and the final install around the pure
  // decisions of recovery_plan.h.
  void StartRecovery(std::shared_ptr<RecoveryState> state);
  void ProbeRound(std::shared_ptr<RecoveryState> state);
  void FetchTails(std::shared_ptr<RecoveryState> state);
  void InstallRecovery(std::shared_ptr<RecoveryState> state);
  txn::ReadView ViewFor(TxnId txn);
  void FinishStatementView(TxnId txn, const txn::ReadView& view);

  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId id_;
  AzId az_;
  storage::NodeResolver resolver_;
  ControlPlane control_plane_;
  DbOptions options_;

  bool open_ = false;
  bool fenced_ = false;

  std::unique_ptr<StorageDriver> driver_;
  /// Stopped drivers from previous incarnations; kept alive because
  /// in-flight simulator events still reference them.
  std::vector<std::unique_ptr<StorageDriver>> retired_drivers_;
  txn::TxnManager txns_;
  /// Buffer cache, tree and snapshot reads; fetches read at VDL.
  SnapshotReader reader_;
  txn::LockTable locks_;
  txn::CommitQueue commit_queue_;

  // LSN allocation (the writer is the sole allocator, §2.1).
  Lsn next_lsn_ = 1;
  Lsn last_volume_lsn_ = kInvalidLsn;
  std::map<ProtectionGroupId, Lsn> last_pg_lsn_;
  /// AppendMtr's latched pages, reused across MTRs so a latch allocates
  /// nothing.
  std::vector<BlockId> latched_;

  // Undo allocation state.
  BlockId current_undo_block_ = kInvalidBlock;
  size_t undo_entries_in_block_ = 0;

  // Per-transaction read views (snapshot isolation).
  std::map<TxnId, txn::ReadView> txn_views_;

  // Replication.
  std::map<NodeId, std::function<void(ReplicationEvent)>> replica_sinks_;
  std::map<NodeId, Lsn> replica_read_points_;
  /// Per-replica stream sequence numbers (continuity header). Reset when
  /// a sink is (re-)added: a rewire means the old stream may have dropped
  /// events, and the seq discontinuity is how the replica learns that.
  std::map<NodeId, uint64_t> replica_stream_seq_;
  Lsn last_shipped_vdl_ = kInvalidLsn;

  uint64_t recovery_generation_ = 0;
  DbStats stats_;
  Histogram commit_latency_;
  Scn max_acked_scn_ = kInvalidLsn;

  // Survives recovery so the rebuilt driver keeps reporting liveness.
  std::function<void(SegmentId, bool)> ack_observer_;
};

}  // namespace aurora::engine
