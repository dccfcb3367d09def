// Read routing without quorum reads (§3.1).
//
// "Aurora does not do quorum reads. Through its bookkeeping of writes and
// consistency points, the database instance knows which segments have the
// last durable version of a data block and can request it directly...
// The database instance will usually issue a request to the segment with
// the lowest measured latency, but occasionally also query one of the
// others in parallel to ensure up to date read latency response times. If
// a request is taking longer than expected, [it] will issue a read to
// another storage node and accept whichever one returns first."

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"

namespace aurora::engine {

struct ReadRouterOptions {
  /// Probability of issuing an extra parallel probe to a non-best segment
  /// to keep its latency estimate fresh.
  double explore_probability = 0.02;
  /// Hedge fires when a request exceeds this multiple of the target's
  /// expected latency.
  double hedge_multiplier = 3.0;
  /// Floor/ceiling for the hedge delay.
  SimDuration min_hedge_delay = 500;
  SimDuration max_hedge_delay = 20 * kMillisecond;
};

/// Tracks per-segment read response times and picks targets.
class ReadRouter {
 public:
  explicit ReadRouter(ReadRouterOptions options = {}) : options_(options) {}

  void ObserveLatency(SegmentId segment, SimDuration latency);

  /// Marks a segment as suspect (timed out / errored); inflates its
  /// estimate so it is deprioritized until a success refreshes it.
  void Penalize(SegmentId segment);

  SimDuration ExpectedLatency(SegmentId segment) const;

  /// Orders `eligible` by expected latency (best first). With probability
  /// explore_probability the second-best is swapped to the front so its
  /// estimate stays fresh.
  std::vector<SegmentId> Rank(std::vector<SegmentId> eligible, Rng& rng) const;

  /// How long to wait on `segment` before hedging to the next candidate.
  SimDuration HedgeDelay(SegmentId segment) const;

  uint64_t hedged_reads() const { return hedged_reads_; }
  void CountHedge() { hedged_reads_++; }

 private:
  ReadRouterOptions options_;
  std::map<SegmentId, double> ewma_;
  uint64_t hedged_reads_ = 0;
};

}  // namespace aurora::engine
