// Traditional replication baselines (§3.2, C8).
//
// 1. Page-shipping primary/backup: the primary sends FULL data pages to R
//    standbys; synchronous mode waits for all acks (jitter + failure
//    modality in the write path), asynchronous mode risks data loss. The
//    C8 benchmark contrasts bytes-on-wire with Aurora's log-only writes.
// 2. Write-all/read-one (WARO) quorum: writes go to every copy and must
//    all ack; reads hit one copy. Better read cost than Vr=3 quorums but
//    write availability collapses with a single slow/failed copy — the
//    trade §3 discusses.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/disk.h"

namespace aurora::baseline {

struct PageShippingOptions {
  bool synchronous = true;
  storage::DiskOptions disk;
};

/// A standby that receives and force-writes full pages.
class Standby {
 public:
  Standby(sim::Simulator* sim, sim::Network* network, NodeId id, AzId az,
          storage::DiskOptions disk = {});
  NodeId id() const { return id_; }
  void HandlePage(uint64_t bytes, std::function<void()> ack);

 private:
  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId id_;
  storage::SimDisk disk_;
};

/// Primary that ships whole dirty pages per transaction.
class PageShippingPrimary {
 public:
  PageShippingPrimary(sim::Simulator* sim, sim::Network* network, NodeId id,
                      AzId az, std::vector<Standby*> standbys,
                      PageShippingOptions options = {});

  /// One transaction touching `pages_dirtied` pages: local log write plus
  /// page shipment; cb after local durability (+ all acks if synchronous).
  void CommitTxn(size_t pages_dirtied, std::function<void()> cb);

  uint64_t bytes_shipped() const { return bytes_shipped_; }
  Histogram& latency() { return latency_; }

 private:
  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId id_;
  std::vector<Standby*> standbys_;
  PageShippingOptions options_;
  storage::SimDisk disk_;
  uint64_t bytes_shipped_ = 0;
  Histogram latency_;
};

}  // namespace aurora::baseline
