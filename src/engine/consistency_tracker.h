// Local bookkeeping of storage consistency points (§2.3, Figure 3).
//
// "No consensus is required to advance SCL, PGCL, or VCL — all that is
// required is bookkeeping by each individual storage node and local
// ephemeral state on the database instance based on the communication
// between the database and storage nodes."
//
// The tracker lives in the writer instance. It observes per-segment SCLs
// from write acknowledgements and computes:
//  * PGCL per protection group — the highest LSN at which that group has
//    made all prior group writes durable (write-quorum over SCLs);
//  * VCL — the highest LSN such that EVERY record at or below it met
//    quorum in its group (Figure 3: PG1@103, PG2@104 ⇒ VCL=104);
//  * VDL — the highest MTR-completion LSN <= VCL (§3.2).
// All three are ephemeral and recomputed from storage at crash recovery.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/common/types.h"
#include "src/quorum/quorum_set.h"

namespace aurora::engine {

/// Per-PG tracking state.
///
/// LSNs are allocated monotonically by the single writer, so the issued
/// set is a monotonic deque (pushed at the back in order, drained from the
/// front as PGCL advances) rather than a node-based std::set — no
/// allocation per record on the hot path.
struct PgTracking {
  quorum::QuorumSet write_set;
  std::vector<SegmentId> members;
  /// Latest SCL observed from each member (ack piggyback).
  std::map<SegmentId, Lsn> scls;
  /// Record LSNs issued to this PG and not yet covered by its PGCL,
  /// ascending.
  std::deque<Lsn> outstanding;
  Lsn pgcl = kInvalidLsn;
  /// The quorum shape or a member's SCL changed since the last
  /// ComputePgcl, so the next Advance() must re-evaluate this PG. An ack
  /// moves one PG; the others keep their last result.
  bool dirty = true;
};

class ConsistencyTracker {
 public:
  /// Registers or refreshes a PG's quorum shape (initial setup, membership
  /// change, volume growth). Existing SCL observations for surviving
  /// members are kept.
  void ConfigurePg(ProtectionGroupId pg, quorum::QuorumSet write_set,
                   std::vector<SegmentId> members);

  /// Observes a segment's SCL from a write ack or state probe.
  void ObserveScl(ProtectionGroupId pg, SegmentId segment, Lsn scl);

  /// Notes that `lsn` was issued to `pg` (outstanding until durable).
  void RecordIssued(ProtectionGroupId pg, Lsn lsn);

  /// Notes that `lsn` closes a mini-transaction (candidate VDL point).
  void RecordMtrComplete(Lsn lsn);

  /// Highest LSN allocated so far (VCL never exceeds it).
  void SetMaxAllocated(Lsn lsn);

  /// Recomputes the PGCL of each PG whose SCLs or shape changed since the
  /// last call, then VCL and VDL. Returns true if VCL or VDL advanced.
  bool Advance();

  Lsn pgcl(ProtectionGroupId pg) const;
  Lsn vcl() const { return vcl_; }
  Lsn vdl() const { return vdl_; }
  Lsn max_allocated() const { return max_allocated_; }

  /// Installs recovered consistency points (crash recovery, §2.4) and
  /// clears issued/MTR state from the previous incarnation.
  void Reset(Lsn vcl, Lsn vdl, Lsn max_allocated);

  /// Seeds a PG's completion point (recovery knows each group's durable
  /// chain tail from the truncation acknowledgements).
  void SeedPgcl(ProtectionGroupId pg, Lsn pgcl);

  /// Test-only: forces VDL forward to violate VDL <= VCL, so tests can
  /// prove the invariant auditor actually fires (never called by the
  /// production paths).
  void CorruptVdlForTest(Lsn vdl) { vdl_ = vdl; }

  /// SCL last observed for a segment (kInvalidLsn if never) — feeds read
  /// routing ("the instance knows which segments have the last durable
  /// version", §3.1).
  Lsn SclOf(ProtectionGroupId pg, SegmentId segment) const;

  const std::map<ProtectionGroupId, PgTracking>& pgs() const { return pgs_; }

 private:
  Lsn ComputePgcl(const PgTracking& tracking) const;

  std::map<ProtectionGroupId, PgTracking> pgs_;
  /// MTR completion points, ascending (monotonic LSN allocation); drained
  /// from the front as VCL passes them in Advance().
  std::deque<Lsn> mtr_points_;
  /// Scratch for ComputePgcl, kept across calls so the per-ack Advance()
  /// does not allocate.
  mutable std::vector<std::pair<Lsn, SegmentId>> by_scl_scratch_;
  mutable std::vector<SegmentId> ids_scratch_;
  Lsn vcl_ = kInvalidLsn;
  Lsn vdl_ = kInvalidLsn;
  Lsn max_allocated_ = kInvalidLsn;
};

}  // namespace aurora::engine
