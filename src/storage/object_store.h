// Simulated object store (stands in for Amazon S3, §2.1 activity 6).
//
// Storage nodes continuously archive chain-complete redo into the object
// store; garbage collection of the hot log is gated on the archive. The
// archive also provides point-in-time snapshots and the fallback source for
// repairing segments whose peers have already evicted old records.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/log/record.h"
#include "src/sim/simulator.h"

namespace aurora::storage {

/// Region-durable archive of redo records, keyed by (volume, protection
/// group). All segments of a PG carry the same log, so one archive per
/// PG deduplicates the six copies; the volume half of the key keeps
/// co-tenant PGs with equal ordinals apart. Each key's archive is a flat
/// LSN-sorted deque of sealed handles: segments back up in LSN order, so
/// the first copy of a record appends at the back and the other copies
/// are found by binary search and dropped. The archive shares each
/// record's block with the hot logs that backed it up.
class ObjectStore {
 public:
  explicit ObjectStore(sim::Simulator* sim);

  /// Archives `records` for `key`; `done(highest_lsn_archived)` runs after
  /// simulated upload latency. Records become visible at completion.
  void Put(ArchiveKey key, std::vector<log::SealedRecord> records,
           std::function<void(Lsn)> done);

  /// Fetches archived records for `key` in [lo, hi].
  void Get(ArchiveKey key, Lsn lo, Lsn hi,
           std::function<void(std::vector<log::SealedRecord>)> done);

  /// Highest contiguous archived LSN chain position per key is not
  /// tracked; this returns the max archived LSN (tests / PITR bounds).
  Lsn MaxArchivedLsn(ArchiveKey key) const;

  uint64_t bytes_stored() const { return bytes_stored_; }
  uint64_t puts() const { return puts_; }
  uint64_t gets() const { return gets_; }

 private:
  sim::Simulator* sim_;
  Rng rng_;
  std::map<ArchiveKey, std::deque<log::SealedRecord>> archive_;
  uint64_t bytes_stored_ = 0;
  uint64_t puts_ = 0;
  uint64_t gets_ = 0;
};

}  // namespace aurora::storage
