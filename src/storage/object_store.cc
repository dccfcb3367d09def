#include "src/storage/object_store.h"

#include <algorithm>
#include <memory>

namespace aurora::storage {

namespace {
constexpr auto kLsnBelow = [](const log::SealedRecord& record, Lsn lsn) {
  return record->lsn < lsn;
};

/// Archive round trips are S3-like: tens of ms, never on the commit path.
const LatencyDistribution kPutLatency =
    LatencyDistribution::LogNormal(20 * kMillisecond, 0.4);
const LatencyDistribution kGetLatency =
    LatencyDistribution::LogNormal(30 * kMillisecond, 0.4);
}  // namespace

ObjectStore::ObjectStore(sim::Simulator* sim)
    : sim_(sim), rng_(sim->rng().Fork()) {}

void ObjectStore::Put(ArchiveKey pg,
                      std::vector<log::SealedRecord> records,
                      std::function<void(Lsn)> done) {
  puts_++;
  const SimDuration latency = kPutLatency.Sample(rng_);
  auto shared =
      std::make_shared<std::vector<log::SealedRecord>>(std::move(records));
  sim_->Schedule(latency, [this, pg, shared, done = std::move(done)]() {
    Lsn max_lsn = kInvalidLsn;
    auto& pg_archive = archive_[pg];
    // Merge: a backup batch is LSN-sorted (each of a PG's segments sends
    // the same ranges), so one binary search places its first record and
    // a cursor walks the rest; a record not above its predecessor
    // re-seeks.
    // The cursor compares against the predecessor's LSN, kept aside
    // because a record archived for the first time moves its handle.
    size_t pos = 0;
    bool seek = true;
    Lsn prev = kInvalidLsn;
    for (log::SealedRecord& record : *shared) {
      const Lsn lsn = record->lsn;
      if (seek || lsn <= prev) {
        pos = std::lower_bound(pg_archive.begin(), pg_archive.end(), lsn,
                               kLsnBelow) -
              pg_archive.begin();
      }
      seek = false;
      prev = lsn;
      max_lsn = std::max(max_lsn, lsn);
      while (pos < pg_archive.size() && pg_archive[pos]->lsn < lsn) {
        ++pos;
      }
      if (pos < pg_archive.size() && pg_archive[pos]->lsn == lsn) {
        continue;
      }
      bytes_stored_ += record->SerializedSize();
      pg_archive.insert(pg_archive.begin() + pos, std::move(record));
      ++pos;
    }
    done(max_lsn);
  });
}

void ObjectStore::Get(ArchiveKey pg, Lsn lo, Lsn hi,
                      std::function<void(std::vector<log::SealedRecord>)> done) {
  gets_++;
  const SimDuration latency = kGetLatency.Sample(rng_);
  sim_->Schedule(latency, [this, pg, lo, hi, done = std::move(done)]() {
    std::vector<log::SealedRecord> out;
    auto it = archive_.find(pg);
    if (it != archive_.end()) {
      for (auto rec = std::lower_bound(it->second.begin(), it->second.end(),
                                       lo, kLsnBelow);
           rec != it->second.end() && (*rec)->lsn <= hi; ++rec) {
        out.push_back(*rec);
      }
    }
    done(std::move(out));
  });
}

Lsn ObjectStore::MaxArchivedLsn(ArchiveKey pg) const {
  auto it = archive_.find(pg);
  if (it == archive_.end() || it->second.empty()) return kInvalidLsn;
  return it->second.back()->lsn;
}

}  // namespace aurora::storage
