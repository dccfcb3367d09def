#include "src/engine/db_instance.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/engine/recovery_plan.h"
#include "src/storage/call.h"

namespace aurora::engine {

namespace {
/// Retry backoff for recovery probe rounds.
constexpr SimDuration kRecoveryRetry = 50 * kMillisecond;
/// Times a write re-reads its row after resolving another writer's
/// version before it reports Aborted.
constexpr int kMaxOpRetries = 16;
}  // namespace

uint64_t ReplicationEvent::SerializedSize() const {
  uint64_t bytes = 64;
  for (const auto& r : mtr) bytes += r->SerializedSize();
  return bytes;
}

DbInstance::DbInstance(sim::Simulator* sim, sim::Network* network, NodeId id,
                       AzId az, storage::NodeResolver resolver,
                       ControlPlane control_plane, DbOptions options)
    : sim_(sim),
      network_(network),
      id_(id),
      az_(az),
      resolver_(std::move(resolver)),
      control_plane_(std::move(control_plane)),
      options_(options),
      reader_(
          options_.cache_pages, &txns_,
          [this](BlockId block, StorageDriver::ReadCallback cb) {
            driver_->ReadBlock(block, vdl(), ComputePgmrpl(), std::move(cb));
          },
          [this]() { return vdl(); },
          [](const std::string&, const txn::ReadView&, const Status& fetched,
             SnapshotReader::ValueCallback cb) {
            // Nothing purges undo, and a row version and its undo entry
            // ride in one MTR: a version whose undo entry is missing means
            // recovery kept half an MTR. Fail loudly; never read it as a
            // miss.
            cb(fetched.ok() ? Status::Internal("undo entry missing under a "
                                               "surviving row version")
                            : fetched);
          }) {
  network_->RegisterNode(id_, az_, this);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void DbInstance::InitComponents(const quorum::VolumeGeometry& geometry,
                                VolumeEpoch epoch) {
  RetireDriver();
  driver_ = std::make_unique<StorageDriver>(sim_, network_, id_, resolver_,
                                            options_.driver);
  driver_->SetGeometry(geometry, epoch);
  driver_->SetAdvanceCallback([this]() { OnDurabilityAdvance(); });
  driver_->SetFencedCallback([this]() {
    // Fencing ends this incarnation like a crash as far as local
    // ephemeral state goes (§2.4): parked commits, txn state, and locks
    // die with it, and recovery decides each commit's fate by whether
    // its SCN survived truncation. Keeping the queue would wedge it —
    // the recovered tracker restarts with VCL at (or past) those SCNs,
    // so no durability advance ever rescans them.
    OnCrash();
    fenced_ = true;
  });
  // Recovery rebuilds the driver; re-apply the externally installed ack
  // observer (health monitoring) so it survives crash/failover.
  if (ack_observer_) driver_->SetAckObserver(ack_observer_);
  driver_->SetPgmrplSource([this]() { return ComputePgmrpl(); });
}

void DbInstance::Bootstrap(std::function<void(Status)> cb) {
  control_plane_.fetch_geometry([this, cb = std::move(cb)](
                                    quorum::VolumeGeometry geometry,
                                    VolumeEpoch epoch) {
    InitComponents(geometry, epoch);
    driver_->Start();
    open_ = true;
    fenced_ = false;
    next_lsn_ = 1;
    // The root leaf is the first allocation (PG0, offset 1); every PG
    // starts its allocation cursor after its reserved block-0 slot.
    const BlockId root = kFirstAllocatableBlock;
    std::vector<uint64_t> cursors(geometry.PgCount(), 1);
    cursors[0] = 2;  // root consumed PG0's first slot
    const Lsn last = AppendMtr(BTree::BootstrapOps(root, cursors),
                               kInvalidTxn, log::RecordType::kData);
    // Acknowledge once the bootstrap MTR is durable.
    commit_queue_.Enqueue(txn::PendingCommit{
        kInvalidTxn, last, sim_->Now(),
        [cb = std::move(cb)]() { cb(Status::OK()); }});
  });
}

void DbInstance::RetireDriver() {
  // The driver (and its boxcar batchers) is referenced by simulator
  // events already scheduled (retry sweeps, hedge timers, boxcar
  // dispatches). Those events guard on the driver's stopped state, so the
  // object must outlive them: retire it instead of destroying it.
  if (driver_) {
    driver_->Stop();
    retired_drivers_.push_back(std::move(driver_));
  }
}

void DbInstance::ForEachDriver(
    const std::function<void(StorageDriver&)>& fn) {
  for (auto& retired : retired_drivers_) fn(*retired);
  if (driver_) fn(*driver_);
}

void DbInstance::OnCrash() {
  // Everything here is the "local ephemeral state" of §2.4.
  open_ = false;
  RetireDriver();
  reader_.Clear();
  commit_queue_.Clear();
  locks_.Clear();
  txns_ = txn::TxnManager();
  txn_views_.clear();
  replica_sinks_.clear();
  replica_read_points_.clear();
  last_pg_lsn_.clear();
  last_volume_lsn_ = kInvalidLsn;
  current_undo_block_ = kInvalidBlock;
  undo_entries_in_block_ = 0;
  last_shipped_vdl_ = kInvalidLsn;
}

// ---------------------------------------------------------------------------
// MTR append (the writer's only write primitive)
// ---------------------------------------------------------------------------

Lsn DbInstance::AppendMtr(const std::vector<StagedOp>& ops, TxnId txn,
                          log::RecordType type) {
  assert(!ops.empty());
  assert(driver_ != nullptr);
  // Latch every page this MTR touches: inserting a fresh page mid-MTR may
  // trigger eviction, and no page the MTR still has to mutate may go.
  latched_.clear();
  for (const auto& staged : ops) {
    if (std::find(latched_.begin(), latched_.end(), staged.block) ==
        latched_.end()) {
      latched_.push_back(staged.block);
      reader_.cache().Pin(staged.block);
    }
  }
  std::vector<log::SealedRecord> records;
  records.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const StagedOp& staged = ops[i];
    auto pg = driver_->geometry().PgForBlock(staged.block);
    assert(pg.ok() && "block outside volume geometry");
    // Ensure the page exists in cache (new blocks start empty).
    storage::Page* page = reader_.CachedPage(staged.block);
    if (page == nullptr) {
      // Only brand-new pages (first op = format) may be created blind;
      // mutating an uncached existing page would fork its block chain.
      if (staged.op.type != storage::PageOpType::kFormat) {
        AURORA_ERROR << "AppendMtr: mutating uncached block " << staged.block
                     << " — block chain will fork (caller bug)";
        assert(false && "mutating an uncached existing page");
      }
      storage::Page fresh;
      fresh.id = staged.block;
      page = reader_.cache().Insert(std::move(fresh), vdl());
      reader_.cache().Pin(staged.block);  // latch the fresh page too
    }
    log::RedoRecord record;
    record.lsn = next_lsn_++;
    record.prev_lsn_volume = last_volume_lsn_;
    record.prev_lsn_segment = last_pg_lsn_[*pg];
    record.prev_lsn_block = page->page_lsn;
    record.pg = *pg;
    record.block = staged.block;
    record.txn = txn;
    record.type = type;
    if (ops.size() == 1) {
      record.mtr = log::MtrBoundary::kSingle;
    } else if (i == 0) {
      record.mtr = log::MtrBoundary::kBegin;
    } else if (i + 1 == ops.size()) {
      record.mtr = log::MtrBoundary::kEnd;
    } else {
      record.mtr = log::MtrBoundary::kMiddle;
    }
    record.payload = EncodePageOp(staged.op);
    last_volume_lsn_ = record.lsn;
    last_pg_lsn_[*pg] = record.lsn;
    // The header is final: checksum and seal once here. The record and
    // its payload become one block that segments, gossip, the archive,
    // the retransmit buffer and the replicas all hold by handle (§2.1
    // scrub checks the carried crc).
    log::SealedRecord sealed = log::Seal(std::move(record));
    // Apply to the cached image immediately (§2.2: changes modify the
    // buffer-cache image and the redo record goes to the log). The image
    // applies the record's own payload, so it shares the shipped block.
    Status st = ApplyRedoPayload(page, sealed->payload, sealed->lsn);
    assert(st.ok());
    (void)st;
    records.push_back(std::move(sealed));
  }
  for (BlockId block : latched_) reader_.cache().Unpin(block);
  const Lsn last = records.back()->lsn;
  driver_->SubmitRecords(records);
  if (!replica_sinks_.empty()) {
    ReplicationEvent event;
    event.type = ReplicationEvent::Type::kMtr;
    event.mtr = std::move(records);
    ShipReplicationEvent(std::move(event));
  }
  return last;
}

BlockId DbInstance::AllocateBlock(std::vector<StagedOp>* ops) {
  // Per-PG allocation cursors live in the meta page; new blocks go to the
  // least-filled protection group so data stripes across the volume.
  // Earlier ops in this MTR may already have bumped a cursor; staged meta
  // updates win over the cached page state.
  storage::Page* meta = reader_.CachedPage(kMetaBlock);
  assert(meta != nullptr && "meta page must be cached for allocation");
  const auto& geometry = driver_->geometry();
  const uint64_t per_pg = geometry.blocks_per_pg();

  auto cursor_of = [&](ProtectionGroupId pg) -> uint64_t {
    const std::string key = AllocCursorKey(pg);
    for (auto it = ops->rbegin(); it != ops->rend(); ++it) {
      if (it->block == kMetaBlock && it->op.key == key) {
        return *DecodeU64Value(it->op.value);
      }
    }
    auto entry = meta->entries.find(key);
    // A PG without a cursor entry was added by volume growth after
    // bootstrap: it starts fresh at offset 1 (block 0 of each PG is
    // reserved), and the first allocation writes its cursor entry.
    if (entry == meta->entries.end()) return 1;
    auto decoded = DecodeU64Value(entry->second);
    return decoded.ok() ? *decoded : per_pg;
  };

  ProtectionGroupId best_pg = 0;
  uint64_t best_cursor = per_pg;
  for (size_t pg = 0; pg < geometry.PgCount(); ++pg) {
    const uint64_t cursor = cursor_of(static_cast<ProtectionGroupId>(pg));
    if (cursor < best_cursor) {
      best_cursor = cursor;
      best_pg = static_cast<ProtectionGroupId>(pg);
    }
  }
  if (best_cursor >= per_pg) {
    AURORA_WARN << "volume full: all " << geometry.PgCount()
                << " protection groups exhausted; grow the volume";
    return kInvalidBlock;
  }
  storage::PageOp bump;
  bump.type = storage::PageOpType::kInsert;
  bump.key = AllocCursorKey(best_pg);
  bump.value = EncodeU64Value(best_cursor + 1);
  ops->push_back({kMetaBlock, bump});
  return static_cast<BlockId>(best_pg) * per_pg + best_cursor;
}

// ---------------------------------------------------------------------------
// Transactions: writes
// ---------------------------------------------------------------------------

TxnId DbInstance::Begin() {
  assert(open_);
  return txns_.Begin(sim_->Now())->id;
}

void DbInstance::Put(TxnId txn, const std::string& key,
                     const std::string& value,
                     std::function<void(Status)> cb) {
  stats_.puts++;
  PutInternal(txn, DataKey(key), value, /*deleted=*/false, std::move(cb),
              kMaxOpRetries);
}

void DbInstance::Delete(TxnId txn, const std::string& key,
                        std::function<void(Status)> cb) {
  stats_.deletes++;
  PutInternal(txn, DataKey(key), "", /*deleted=*/true, std::move(cb),
              kMaxOpRetries);
}

Status DbInstance::CheckWritable(TxnId txn) {
  if (!open_) {
    return fenced_ ? Status::Fenced("instance fenced")
                   : Status::Unavailable("instance not open");
  }
  // Degraded-mode backpressure: while a PG has lost its write quorum and
  // the driver's parked-record budget is exhausted, refuse NEW writes up
  // front (bounded memory). In-flight records, commits, and reads are
  // untouched — commits park in the SCN queue and drain on recovery,
  // reads stay available at Vr=3.
  if (driver_ != nullptr && !driver_->AcceptingWrites()) {
    stats_.degraded_rejected_writes++;
    return Status::Unavailable(
        "write quorum degraded: parked-write budget full");
  }
  if (!txns_.IsActive(txn)) {
    return Status::InvalidArgument("transaction not active");
  }
  return Status::OK();
}

void DbInstance::PutInternal(TxnId txn, std::string key, std::string value,
                             bool deleted, std::function<void(Status)> cb,
                             int retries) {
  if (Status st = CheckWritable(txn); !st.ok()) {
    cb(std::move(st));
    return;
  }
  if (retries <= 0) {
    cb(Status::Aborted("write retries exhausted"));
    return;
  }
  if (Status st = locks_.Acquire(txn, key); !st.ok()) {
    cb(std::move(st));
    return;
  }
  reader_.btree().WithPath(
      std::move(key),
      [this, txn, value = std::move(value), deleted, cb = std::move(cb),
       retries](std::string key, Result<std::vector<BlockId>> path) mutable {
        if (!path.ok()) {
          cb(path.status());
          return;
        }
        // A fault-in may have outlived the instance or the transaction.
        if (Status st = CheckWritable(txn); !st.ok()) {
          cb(std::move(st));
          return;
        }
        storage::Page* leaf = reader_.CachedPage(path->back());
        std::optional<txn::RowVersion> existing;
        if (auto it = leaf->entries.find(key); it != leaf->entries.end()) {
          auto decoded = txn::DecodeRowVersion(it->second);
          if (!decoded.ok()) {
            cb(decoded.status());
            return;
          }
          existing = std::move(*decoded);
        }
        // The lock is ours, so another writer on the row is committed or
        // gone. One neither active nor in local commit history must be
        // resolved first: the status index vouches for a commit from
        // before this incarnation (then the write retries), and a writer
        // it does not know is a crashed incarnation's leftover, rolled
        // back by the one compensation rule before the write retries
        // (§2.4: undo runs after open, in parallel with user activity).
        if (existing.has_value() && existing->txn != txn &&
            !txns_.IsActive(existing->txn) &&
            !txns_.CommitScnOf(existing->txn).has_value()) {
          const TxnId writer = existing->txn;
          const txn::UndoPtr undo = existing->undo;
          auto retry = [this, txn, key = std::move(key),
                        value = std::move(value), deleted,
                        cb = std::move(cb), retries](Status st) mutable {
            if (!st.ok()) {
              cb(std::move(st));
              return;
            }
            PutInternal(txn, std::move(key), std::move(value), deleted,
                        std::move(cb), retries - 1);
          };
          reader_.ResolveCommitScn(
              writer, [this, writer, undo, retry = std::move(retry)](
                          std::optional<Scn> scn) mutable {
                if (scn.has_value()) {
                  retry(Status::OK());
                  return;
                }
                stats_.leftover_rollbacks++;
                Compensate(writer, undo, std::move(retry));
              });
          return;
        }
        ApplyWrite(txns_.Find(txn), key, value, deleted, *path,
                   std::move(existing), std::move(cb));
      });
}

Result<std::pair<BlockId, std::string>> DbInstance::StageUndo(
    txn::Transaction* txn, const std::string& key,
    const std::optional<txn::RowVersion>& existing,
    std::vector<StagedOp>* ops) {
  if (current_undo_block_ == kInvalidBlock ||
      undo_entries_in_block_ >= options_.undo_entries_per_page ||
      reader_.CachedPage(current_undo_block_) == nullptr) {
    // The third condition: the current undo page fell out of cache (its
    // redo is durable). Appending blind would break its block chain, so
    // simply start a fresh undo page.
    current_undo_block_ = AllocateBlock(ops);
    if (current_undo_block_ == kInvalidBlock) {
      return Status::OutOfRange("volume full: grow the volume to continue");
    }
    undo_entries_in_block_ = 0;
    storage::PageOp format;
    format.type = storage::PageOpType::kFormat;
    format.page_type = storage::PageType::kUndo;
    ops->push_back({current_undo_block_, format});
  }
  txn::UndoEntry entry;
  entry.row_key = key;
  entry.prev_exists = existing.has_value();
  if (existing.has_value()) entry.prev = *existing;
  entry.next = txn->undo_head;
  const std::string undo_key =
      "u" + std::to_string(txn->id) + "-" + std::to_string(txn->undo_seq++);
  storage::PageOp insert;
  insert.type = storage::PageOpType::kInsert;
  insert.key = undo_key;
  insert.value = txn::EncodeUndoEntry(entry);
  ops->push_back({current_undo_block_, insert});
  undo_entries_in_block_++;
  return std::make_pair(current_undo_block_, undo_key);
}

void DbInstance::ApplyWrite(txn::Transaction* txn, const std::string& key,
                            const std::string& value, bool deleted,
                            const std::vector<BlockId>& path,
                            std::optional<txn::RowVersion> existing,
                            std::function<void(Status)> cb) {
  // Room for the common MTR (undo insert + leaf upsert, or a fresh undo
  // page's format and cursor bump besides) in one allocation.
  std::vector<StagedOp> ops;
  ops.reserve(4);
  auto undo_ptr = StageUndo(txn, key, existing, &ops);
  if (!undo_ptr.ok()) {
    cb(undo_ptr.status());
    return;
  }
  txn::RowVersion version;
  version.txn = txn->id;
  version.deleted = deleted;
  version.value = value;
  version.undo = txn::UndoPtr{undo_ptr->first, undo_ptr->second};
  auto plan = reader_.btree().PlanInsert(
      path, key, txn::EncodeRowVersion(version),
      [this](std::vector<StagedOp>* staged) { return AllocateBlock(staged); });
  if (!plan.ok()) {
    cb(plan.status());
    return;
  }
  ops.insert(ops.end(), std::make_move_iterator(plan->begin()),
             std::make_move_iterator(plan->end()));
  AppendMtr(ops, txn->id);
  txn->undo_head = version.undo;
  txn->writes.emplace_back(path.back(), key);
  cb(Status::OK());
}

// ---------------------------------------------------------------------------
// Transactions: reads
// ---------------------------------------------------------------------------

txn::ReadView DbInstance::ViewFor(TxnId txn) {
  if (txn != kInvalidTxn) {
    auto it = txn_views_.find(txn);
    if (it != txn_views_.end()) return it->second;
    txn::ReadView view = txns_.OpenReadView(vdl(), txn);
    txn_views_.emplace(txn, view);
    return view;
  }
  return txns_.OpenReadView(vdl(), kInvalidTxn);
}

void DbInstance::FinishStatementView(TxnId txn, const txn::ReadView& view) {
  if (txn == kInvalidTxn) txns_.CloseReadView(view);
}

void DbInstance::Get(TxnId txn, const std::string& key,
                     std::function<void(Result<std::string>)> cb) {
  stats_.gets++;
  if (!open_) {
    cb(Status::Unavailable("instance not open"));
    return;
  }
  txn::ReadView view = ViewFor(txn);
  reader_.Get(key, view,
              [this, txn, view, cb = std::move(cb)](
                  Result<std::string> result) {
                FinishStatementView(txn, view);
                cb(std::move(result));
              });
}

void DbInstance::Scan(
    TxnId txn, const std::string& lo, const std::string& hi, size_t limit,
    std::function<
        void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  stats_.scans++;
  if (!open_) {
    cb(Status::Unavailable("instance not open"));
    return;
  }
  txn::ReadView view = ViewFor(txn);
  reader_.Scan(lo, hi, limit, view,
               [this, txn, view, cb = std::move(cb)](
                   Result<SnapshotReader::Rows> result) {
                 FinishStatementView(txn, view);
                 cb(std::move(result));
               });
}

// ---------------------------------------------------------------------------
// Commit / rollback
// ---------------------------------------------------------------------------

void DbInstance::Commit(TxnId txn, std::function<void(Status)> cb) {
  if (!open_) {
    cb(Status::Unavailable("instance not open"));
    return;
  }
  txn::Transaction* t = txns_.Find(txn);
  if (t == nullptr || t->state != txn::TxnState::kActive) {
    cb(Status::InvalidArgument("transaction not active"));
    return;
  }
  if (t->writes.empty()) {
    // Read-only: nothing to make durable.
    txns_.MarkCommitting(txn, vdl());
    txns_.MarkCommitted(txn);
    CloseTxnView(txn);
    cb(Status::OK());
    return;
  }
  FinishCommit(txn, std::move(cb));
}

void DbInstance::FinishCommit(TxnId txn, std::function<void(Status)> cb) {
  // The commit record: a normal B-tree insert into the status index, so
  // its pages stay bounded by splits. The record's MTR-final LSN is the
  // SCN and doubles as the durable txn -> SCN mapping (readable by
  // replicas and by recovery).
  reader_.btree().WithPath(
      StatusKey(txn),
      [this, txn, cb = std::move(cb)](
          std::string status_key, Result<std::vector<BlockId>> path) mutable {
        if (!path.ok()) {
          cb(path.status());
          return;
        }
        // A fault-in may have outlived the transaction.
        if (!txns_.IsActive(txn)) {
          cb(Status::InvalidArgument("transaction not active"));
          return;
        }
        auto plan = reader_.btree().PlanInsert(
            *path, status_key, EncodeU64Value(0),
            [this](std::vector<StagedOp>* staged) {
              return AllocateBlock(staged);
            });
        if (!plan.ok()) {
          cb(plan.status());
          return;
        }
        // SCN = the MTR's last LSN (the whole commit MTR is durable at SCN).
        const Scn scn = next_lsn_ + plan->size() - 1;
        for (auto& staged : *plan) {
          if (staged.op.type == storage::PageOpType::kInsert &&
              staged.op.key == status_key) {
            staged.op.value = EncodeU64Value(scn);
          }
        }
        const Lsn written = AppendMtr(*plan, txn, log::RecordType::kCommit);
        assert(written == scn);
        (void)written;
        txns_.MarkCommitting(txn, scn);
        locks_.ReleaseAll(txn);
        // Ship the commit notification to replicas (§3.4); visibility
        // there is still gated by their VDL.
        if (!replica_sinks_.empty()) {
          ReplicationEvent event;
          event.type = ReplicationEvent::Type::kCommit;
          event.txn = txn;
          event.scn = scn;
          ShipReplicationEvent(event);
        }
        // Worker thread moves on; the dedicated commit path acks when VCL
        // passes the SCN (§2.3).
        const SimTime enqueued = sim_->Now();
        commit_queue_.Enqueue(txn::PendingCommit{
            txn, scn, enqueued,
            [this, txn, scn, enqueued, cb = std::move(cb)]() {
              txns_.MarkCommitted(txn);
              stats_.commits_acked++;
              if (scn > max_acked_scn_) max_acked_scn_ = scn;
              commit_latency_.Record(sim_->Now() - enqueued);
              CloseTxnView(txn);
              cb(Status::OK());
            }});
        // VCL may already cover the SCN (e.g. single-record MTRs acked
        // fast).
        OnDurabilityAdvance();
      });
}

void DbInstance::CloseTxnView(TxnId txn) {
  if (auto it = txn_views_.find(txn); it != txn_views_.end()) {
    txns_.CloseReadView(it->second);
    txn_views_.erase(it);
  }
}

void DbInstance::Rollback(TxnId txn, std::function<void(Status)> cb) {
  txn::Transaction* t = txns_.Find(txn);
  if (t == nullptr || t->state != txn::TxnState::kActive) {
    cb(Status::InvalidArgument("transaction not active"));
    return;
  }
  RollbackFrom(txn, t->undo_head, [this, txn, cb = std::move(cb)](Status st) {
    txns_.MarkAborted(txn);
    stats_.txn_aborts++;
    locks_.ReleaseAll(txn);
    CloseTxnView(txn);
    cb(std::move(st));
  });
}

void DbInstance::RollbackFrom(TxnId txn, txn::UndoPtr ptr,
                              std::function<void(Status)> cb) {
  if (ptr.IsNull()) {
    cb(Status::OK());
    return;
  }
  ReadUndo(ptr, [this, txn, ptr, cb = std::move(cb)](
                    Result<txn::UndoEntry> entry) mutable {
    if (!entry.ok()) {
      cb(entry.status());
      return;
    }
    Compensate(txn, ptr, [this, txn, next = entry->next,
                          cb = std::move(cb)](Status st) mutable {
      if (!st.ok()) {
        cb(std::move(st));
        return;
      }
      RollbackFrom(txn, next, std::move(cb));
    });
  });
}

void DbInstance::Compensate(TxnId txn, txn::UndoPtr undo,
                            std::function<void(Status)> cb) {
  ReadUndo(undo, [this, txn, cb = std::move(cb)](
                     Result<txn::UndoEntry> entry) mutable {
    if (!entry.ok()) {
      cb(entry.status());
      return;
    }
    if (entry->prev_exists && entry->prev.txn == txn) {
      // The version this write replaced is `txn`'s own: look past it.
      Compensate(txn, entry->prev.undo, std::move(cb));
      return;
    }
    // Take the key out first: the capture below moves `entry`.
    std::string key = std::move(entry->row_key);
    reader_.btree().WithPath(
        std::move(key),
        [this, txn, entry = std::move(*entry), cb = std::move(cb)](
            std::string key, Result<std::vector<BlockId>> path) mutable {
          if (!path.ok()) {
            cb(path.status());
            return;
          }
          // A row whose newest version is no longer `txn`'s was already
          // compensated (an earlier write of the same row, newer in the
          // undo chain, restored it).
          const storage::Page* leaf = reader_.CachedPage(path->back());
          auto it = leaf->entries.find(key);
          if (it == leaf->entries.end()) {
            cb(Status::OK());
            return;
          }
          auto top = txn::DecodeRowVersion(it->second);
          if (!top.ok()) {
            cb(top.status());
            return;
          }
          if (top->txn != txn) {
            cb(Status::OK());
            return;
          }
          std::vector<StagedOp> ops;
          if (entry.prev_exists) {
            auto plan = reader_.btree().PlanInsert(
                *path, key, txn::EncodeRowVersion(entry.prev),
                [this](std::vector<StagedOp>* staged) {
                  return AllocateBlock(staged);
                });
            if (!plan.ok()) {
              cb(plan.status());
              return;
            }
            ops = std::move(*plan);
          } else {
            storage::PageOp erase;
            erase.type = storage::PageOpType::kErase;
            erase.key = key;
            ops.push_back({path->back(), erase});
          }
          AppendMtr(ops, txn);
          cb(Status::OK());
        });
  });
}

void DbInstance::ReadUndo(
    txn::UndoPtr ptr, std::function<void(Result<txn::UndoEntry>)> cb) {
  reader_.WithPage(ptr.block, [ptr, cb = std::move(cb)](
                                  Result<storage::Page*> page) {
    if (!page.ok()) {
      cb(page.status());
      return;
    }
    auto it = (*page)->entries.find(ptr.key);
    if (it == (*page)->entries.end()) {
      cb(Status::Internal("undo entry missing"));
      return;
    }
    cb(txn::DecodeUndoEntry(it->second));
  });
}

// ---------------------------------------------------------------------------
// Durability advancement & replication
// ---------------------------------------------------------------------------

void DbInstance::OnDurabilityAdvance() {
  if (driver_ == nullptr) return;
  const Lsn current_vcl = driver_->tracker().vcl();
  for (auto& pending : commit_queue_.DrainUpTo(current_vcl)) {
    pending.ack();
  }
  const Lsn current_vdl = driver_->tracker().vdl();
  if (current_vdl != last_shipped_vdl_ && !replica_sinks_.empty()) {
    ReplicationEvent event;
    event.type = ReplicationEvent::Type::kVdlUpdate;
    event.vdl = current_vdl;
    ShipReplicationEvent(event);
  }
  last_shipped_vdl_ = current_vdl;
  reader_.cache().TrimToCapacity(current_vdl);
}

void DbInstance::ShipReplicationEvent(ReplicationEvent event) {
  stats_.replication_events += replica_sinks_.size();
  event.shipped_at = sim_->Now();
  event.source = id_;
  const uint64_t bytes = event.SerializedSize();
  size_t left = replica_sinks_.size();
  for (const auto& [replica, deliver] : replica_sinks_) {
    // Every sink but the last gets a copy; the last takes the event.
    ReplicationEvent stamped = --left > 0 ? event : std::move(event);
    stamped.seq = ++replica_stream_seq_[replica];
    network_->Send(id_, replica, bytes,
                   [deliver, stamped = std::move(stamped)]() mutable {
                     deliver(std::move(stamped));
                   });
  }
}

void DbInstance::AddReplicationSink(
    NodeId replica, std::function<void(ReplicationEvent)> deliver) {
  replica_sinks_[replica] = std::move(deliver);
  // A (re-)added sink starts a fresh seq stream: any events the previous
  // wiring lost are surfaced to the replica as a continuity break.
  replica_stream_seq_[replica] = 0;
  // Prime the replica with the current VDL.
  ReplicationEvent event;
  event.type = ReplicationEvent::Type::kVdlUpdate;
  event.vdl = vdl();
  event.source = id_;
  event.seq = ++replica_stream_seq_[replica];
  network_->Send(id_, replica, event.SerializedSize(),
                 [deliver = replica_sinks_[replica], event]() {
                   deliver(event);
                 });
}

void DbInstance::ObserveReplicaReadPoint(NodeId replica, Lsn read_point) {
  replica_read_points_[replica] = read_point;
}

Lsn DbInstance::ComputePgmrpl() const {
  Lsn min_point = vdl();
  const Lsn local = txns_.MinOpenReadLsn();
  if (local != kInvalidLsn) min_point = std::min(min_point, local);
  for (const auto& [replica, point] : replica_read_points_) {
    min_point = std::min(min_point, point);
  }
  return min_point;
}

}  // namespace aurora::engine

namespace aurora::engine {

// ---------------------------------------------------------------------------
// Crash recovery (§2.4, Figure 4)
// ---------------------------------------------------------------------------

struct DbInstance::RecoveryState {
  enum class Phase { kProbing, kTails, kEpoch, kDone };

  std::function<void(Status)> cb;
  quorum::VolumeGeometry geometry;
  VolumeEpoch new_epoch = 0;
  Phase phase = Phase::kProbing;

  /// Probe replies, keyed by PG then segment; a repeat reply replaces the
  /// segment's earlier one.
  std::map<ProtectionGroupId, SclProbeReplies> probes;
  RecoveryPlan plan;
  /// Tail replies since the plan was made, in arrival order.
  std::vector<TailReply> tails;
  size_t tail_outstanding = 0;
  RecoveryPoints points;

  // Epoch installation.
  std::map<ProtectionGroupId, quorum::SegmentSet> epoch_acks;
  std::map<ProtectionGroupId, Lsn> post_truncation_scl;
  int epoch_rounds = 0;
  uint64_t generation = 0;
};

void DbInstance::Open(std::function<void(Status)> cb) {
  if (open_) {
    cb(Status::OK());
    return;
  }
  auto state = std::make_shared<RecoveryState>();
  state->cb = std::move(cb);
  state->generation = ++recovery_generation_;
  control_plane_.fetch_geometry(
      [this, state](quorum::VolumeGeometry geometry, VolumeEpoch epoch) {
        state->geometry = std::move(geometry);
        InitComponents(state->geometry, epoch);
        StartRecovery(state);
      });
}

void DbInstance::StartRecovery(std::shared_ptr<RecoveryState> state) {
  if (state->generation != recovery_generation_ || driver_ == nullptr) return;
  state->phase = RecoveryState::Phase::kProbing;
  state->probes.clear();
  state->tails.clear();
  state->epoch_acks.clear();
  state->post_truncation_scl.clear();
  state->epoch_rounds = 0;
  ProbeRound(state);
}

void DbInstance::ProbeRound(std::shared_ptr<RecoveryState> state) {
  if (state->generation != recovery_generation_ || driver_ == nullptr) return;
  if (state->phase != RecoveryState::Phase::kProbing) return;
  for (const auto& pg : state->geometry.pgs()) {
    for (const auto& member : pg.AllMembers()) {
      storage::Call<&storage::StorageNode::HandleSegmentState>(
          network_, id_, member.node, storage::ResolveWith(resolver_),
          storage::SegmentStateRequest{member.id},
          [state, pg_id = pg.pg()](storage::SegmentStateResponse response) {
            if (state->phase != RecoveryState::Phase::kProbing) return;
            if (!response.status.ok()) return;
            state->probes[pg_id][response.segment] = std::move(response);
          });
    }
  }
  // Plan after a settling delay; probe again while any PG lacks a read
  // quorum of hydrated replies.
  sim_->Schedule(kRecoveryRetry, [this, state]() {
    if (state->phase != RecoveryState::Phase::kProbing) return;
    std::optional<RecoveryPlan> plan =
        PlanRecovery(state->geometry, state->probes);
    if (!plan) {
      ProbeRound(state);
      return;
    }
    state->plan = std::move(*plan);
    state->phase = RecoveryState::Phase::kTails;
    FetchTails(state);
  });
}

void DbInstance::FetchTails(std::shared_ptr<RecoveryState> state) {
  if (state->generation != recovery_generation_ || driver_ == nullptr) return;
  if (state->phase != RecoveryState::Phase::kTails) return;
  // Fetch the (lsn, mtr-complete) shape of each PG's chain above the
  // floor from its best segment.
  state->tail_outstanding = 0;
  for (const auto& pg : state->geometry.pgs()) {
    const quorum::SegmentInfo* info =
        pg.FindSegment(state->plan.pgs.at(pg.pg()).segment);
    if (info == nullptr) continue;
    state->tail_outstanding++;
    storage::Call<&storage::StorageNode::HandleTailRecords>(
        network_, id_, info->node, storage::ResolveWith(resolver_),
        storage::TailRecordsRequest{info->id, state->plan.tail_floor},
        [this, state, pg_id = pg.pg()](storage::TailRecordsResponse response) {
          if (state->phase != RecoveryState::Phase::kTails) return;
          state->tails.push_back(TailReply{pg_id, std::move(response)});
          if (--state->tail_outstanding > 0) return;
          const RecoveryPoints points =
              FinishRecovery(state->plan, state->tails);
          if (points.deeper_floor) {
            state->plan.tail_floor = *points.deeper_floor;
            FetchTails(state);
            return;
          }
          state->points = points;
          state->phase = RecoveryState::Phase::kEpoch;
          control_plane_.increment_volume_epoch(
              [this, state](VolumeEpoch new_epoch) {
                state->new_epoch = new_epoch;
                InstallRecovery(state);
              });
        });
  }
  if (state->tail_outstanding == 0) {
    // No reachable best segments (should not happen after a successful
    // probe round); restart.
    sim_->Schedule(kRecoveryRetry,
                   [this, state]() { StartRecovery(state); });
  } else {
    // Watchdog: if a tail fetch is lost (node crashed mid-recovery),
    // restart from probing.
    sim_->Schedule(kRecoveryRetry * 4, [this, state]() {
      if (state->phase == RecoveryState::Phase::kTails) {
        StartRecovery(state);
      }
    });
  }
}

void DbInstance::InstallRecovery(std::shared_ptr<RecoveryState> state) {
  if (state->generation != recovery_generation_ || driver_ == nullptr) return;
  if (state->phase != RecoveryState::Phase::kEpoch) return;
  if (++state->epoch_rounds > 20) {
    // Storage membership likely changed under us; restart recovery.
    StartRecovery(state);
    return;
  }
  // Record the new volume epoch + truncation range at every segment;
  // finalize once a write quorum of every PG (including its best segment,
  // whose post-truncation SCL seeds the new chain tail) has accepted.
  storage::VolumeEpochUpdateRequest base;
  base.new_epoch = state->new_epoch;
  base.truncation = state->points.truncation;
  for (const auto& pg : state->geometry.pgs()) {
    for (const auto& member : pg.AllMembers()) {
      if (state->epoch_acks[pg.pg()].contains(member.id)) continue;
      storage::VolumeEpochUpdateRequest request = base;
      request.segment = member.id;
      storage::Call<&storage::StorageNode::HandleVolumeEpochUpdate>(
          network_, id_, member.node, storage::ResolveWith(resolver_),
          std::move(request),
          [this, state, pg_id = pg.pg(), seg = member.id](
              storage::VolumeEpochUpdateResponse response) {
            if (state->phase != RecoveryState::Phase::kEpoch) return;
            if (!response.status.ok() &&
                !response.status.IsStaleEpoch()) {
              return;
            }
            if (response.status.IsStaleEpoch() &&
                response.current_epoch > state->new_epoch) {
              // A newer incarnation exists; we lost the race.
              state->phase = RecoveryState::Phase::kDone;
              state->cb(Status::Fenced("newer volume epoch exists"));
              return;
            }
            state->epoch_acks[pg_id].insert(seg);
            Lsn& tail = state->post_truncation_scl[pg_id];
            tail = std::max(tail, response.scl);
          });
    }
  }
  sim_->Schedule(kRecoveryRetry, [this, state]() {
    if (state->phase != RecoveryState::Phase::kEpoch) return;
    if (!EpochInstalled(state->geometry, state->plan, state->epoch_acks)) {
      InstallRecovery(state);
      return;
    }
    state->phase = RecoveryState::Phase::kDone;
    // Install the recovered state. Truncation annulled everything above
    // VDL, so the effective VCL equals the recovered VDL.
    const Lsn durable = state->points.vdl;
    driver_->SetGeometry(state->geometry, state->new_epoch);
    driver_->tracker().Reset(durable, durable, durable);
    // Each group's durable chain tail (from the truncation acks) seeds its
    // completion point so reads clamp correctly from the first query.
    for (const auto& pg : state->geometry.pgs()) {
      driver_->tracker().SeedPgcl(pg.pg(),
                                  state->post_truncation_scl[pg.pg()]);
    }
    next_lsn_ = state->points.truncation.end + 1;
    last_volume_lsn_ = durable;
    last_pg_lsn_.clear();
    for (const auto& pg : state->geometry.pgs()) {
      last_pg_lsn_[pg.pg()] = state->post_truncation_scl[pg.pg()];
    }
    driver_->Start();
    txns_.SetTxnIdFloor(next_lsn_);
    open_ = true;
    fenced_ = false;
    stats_.crash_recoveries++;
    AURORA_INFO << "instance " << id_ << " recovered: vdl=" << durable
                << " epoch=" << state->new_epoch << " next_lsn="
                << next_lsn_;
    state->cb(Status::OK());
  });
}

}  // namespace aurora::engine
