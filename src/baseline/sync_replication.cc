#include "src/baseline/sync_replication.h"

namespace aurora::baseline {

namespace {
/// A dirty page ships whole: the traffic C8 sets against log-only writes.
constexpr uint64_t kPageBytes = 8192;
/// The commit's log record, force-written locally and shipped as well.
constexpr uint64_t kLogRecordBytes = 256;
}  // namespace

Standby::Standby(sim::Simulator* sim, sim::Network* network, NodeId id,
                 AzId az, storage::DiskOptions disk)
    : sim_(sim), network_(network), id_(id), disk_(sim, disk) {
  network_->RegisterNode(id_, az);
}

void Standby::HandlePage(uint64_t bytes, std::function<void()> ack) {
  disk_.SubmitWrite(bytes, [this, ack = std::move(ack)]() {
    if (!network_->IsUp(id_)) return;
    ack();
  });
}

PageShippingPrimary::PageShippingPrimary(sim::Simulator* sim,
                                         sim::Network* network, NodeId id,
                                         AzId az,
                                         std::vector<Standby*> standbys,
                                         PageShippingOptions options)
    : sim_(sim),
      network_(network),
      id_(id),
      standbys_(std::move(standbys)),
      options_(options),
      disk_(sim, options.disk) {
  network_->RegisterNode(id_, az);
}

void PageShippingPrimary::CommitTxn(size_t pages_dirtied,
                                    std::function<void()> cb) {
  const SimTime start = sim_->Now();
  const uint64_t ship_bytes = pages_dirtied * kPageBytes + kLogRecordBytes;
  auto acks = std::make_shared<size_t>(0);
  auto local_done = std::make_shared<bool>(false);
  auto fired = std::make_shared<bool>(false);
  const size_t need_acks = options_.synchronous ? standbys_.size() : 0;
  auto maybe_finish = [this, acks, local_done, fired, need_acks, start,
                       cb = std::move(cb)]() {
    if (*fired || !*local_done || *acks < need_acks) return;
    *fired = true;
    latency_.Record(sim_->Now() - start);
    cb();
  };
  // Local group-commit force write of the log.
  disk_.SubmitWrite(kLogRecordBytes,
                    [local_done, maybe_finish]() {
                      *local_done = true;
                      maybe_finish();
                    });
  for (Standby* standby : standbys_) {
    bytes_shipped_ += ship_bytes;
    network_->Send(id_, standby->id(), ship_bytes,
                   [this, standby, ship_bytes, acks, maybe_finish]() {
                     standby->HandlePage(
                         ship_bytes, [this, standby, acks, maybe_finish]() {
                           network_->Send(standby->id(), id_, 64,
                                          [acks, maybe_finish]() {
                                            (*acks)++;
                                            maybe_finish();
                                          });
                         });
                   });
  }
  if (need_acks == 0) {
    // Async mode: nothing further gates the commit.
  }
}

}  // namespace aurora::baseline
