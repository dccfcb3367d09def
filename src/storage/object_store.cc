#include "src/storage/object_store.h"

#include <algorithm>
#include <memory>

namespace aurora::storage {

namespace {
constexpr auto kLsnBelow = [](const log::RedoRecord& record, Lsn lsn) {
  return record.lsn < lsn;
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
                      std::vector<log::RedoRecord> records,
                      std::function<void(Lsn)> done) {
  puts_++;
  const SimDuration latency = kPutLatency.Sample(rng_);
  auto shared =
      std::make_shared<std::vector<log::RedoRecord>>(std::move(records));
  sim_->Schedule(latency, [this, pg, shared, done = std::move(done)]() {
    Lsn max_lsn = kInvalidLsn;
    auto& pg_archive = archive_[pg];
    for (auto& record : *shared) {
      max_lsn = std::max(max_lsn, record.lsn);
      if (pg_archive.empty() || record.lsn > pg_archive.back().lsn) {
        bytes_stored_ += record.SerializedSize();
        pg_archive.push_back(std::move(record));
        continue;
      }
      auto pos = std::lower_bound(pg_archive.begin(), pg_archive.end(),
                                  record.lsn, kLsnBelow);
      if (pos != pg_archive.end() && pos->lsn == record.lsn) continue;
      bytes_stored_ += record.SerializedSize();
      pg_archive.insert(pos, std::move(record));
    }
    done(max_lsn);
  });
}

void ObjectStore::Get(ArchiveKey pg, Lsn lo, Lsn hi,
                      std::function<void(std::vector<log::RedoRecord>)> done) {
  gets_++;
  const SimDuration latency = kGetLatency.Sample(rng_);
  sim_->Schedule(latency, [this, pg, lo, hi, done = std::move(done)]() {
    std::vector<log::RedoRecord> out;
    auto it = archive_.find(pg);
    if (it != archive_.end()) {
      for (auto rec = std::lower_bound(it->second.begin(), it->second.end(),
                                       lo, kLsnBelow);
           rec != it->second.end() && rec->lsn <= hi; ++rec) {
        out.push_back(*rec);
      }
    }
    done(std::move(out));
  });
}

Lsn ObjectStore::MaxArchivedLsn(ArchiveKey pg) const {
  auto it = archive_.find(pg);
  if (it == archive_.end() || it->second.empty()) return kInvalidLsn;
  return it->second.back().lsn;
}

}  // namespace aurora::storage
