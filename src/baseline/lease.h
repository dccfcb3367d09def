// Lease-based fencing baseline (§4.1).
//
// "Some systems use leases to establish short term entitlements to access
// the system, but leases introduce latency when one needs to wait for
// expiry. Aurora, rather than waiting for a lease to expire, just changes
// the locks on the door." This model quantifies the wait: a new writer
// cannot be safely admitted until the old holder's lease has provably
// expired, even if the old holder is already dead.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace aurora::baseline {

struct LeaseOptions {
  SimDuration ttl = 10 * kSecond;
  /// Clock-skew safety margin the grantor must add before re-granting.
  SimDuration skew_margin = 500 * kMillisecond;
};

/// A single-resource lease grantor.
class LeaseManager {
 public:
  LeaseManager(sim::Simulator* sim, LeaseOptions options = {})
      : sim_(sim), options_(options) {}

  /// Grants (or renews) the lease to `holder` if it is free or already
  /// theirs. Returns false if someone else holds an unexpired lease.
  bool Acquire(NodeId holder);

  /// The current holder, or kInvalidNode once expired.
  NodeId Holder() const;

  /// When a NEW holder could be admitted: expiry + skew margin. If the
  /// lease is free, that is now.
  SimTime EarliestTakeover() const;

  /// Blocks (in simulated time) until takeover is safe, then grants to
  /// `new_holder`. cb(wait) reports how long the failover stalled — the
  /// number the C5 benchmark contrasts with epoch fencing.
  void AcquireWhenFree(NodeId new_holder,
                       std::function<void(SimDuration)> cb);

  SimTime expiry() const { return expiry_; }

 private:
  sim::Simulator* sim_;
  LeaseOptions options_;
  NodeId holder_ = kInvalidNode;
  SimTime expiry_ = 0;
};

}  // namespace aurora::baseline
