// Writer-side record batching ("boxcarring") policies.
//
// §2.2: many databases boxcar redo writes, trading latency for packing;
// waiting creates jitter, worst at low load when the boxcar times out.
// Aurora instead submits the asynchronous network operation when the FIRST
// record enters the boxcar but keeps filling the buffer until the operation
// actually executes — no induced latency, yet records still pack together.
//
// Both policies are implemented so the C2 benchmark can contrast them.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/types.h"
#include "src/log/record.h"
#include "src/sim/simulator.h"

namespace aurora::log {

/// How a batch decides it is ready to leave.
enum class BoxcarPolicy {
  /// Aurora: dispatch is scheduled as soon as the first record arrives;
  /// everything added before the dispatch executes rides along.
  kSubmitOnFirst,
  /// Baseline: wait for the batch to fill or a timeout since the first
  /// record, whichever comes first.
  kFillOrTimeout,
};

struct BoxcarOptions {
  BoxcarPolicy policy = BoxcarPolicy::kSubmitOnFirst;
  /// Delay between scheduling the async network op and its execution
  /// (kernel/NIC queue time). Applies to kSubmitOnFirst.
  SimDuration dispatch_delay = 20;
  /// Timeout since first record for kFillOrTimeout.
  SimDuration fill_timeout = 4 * kMillisecond;
  /// Batch is dispatched immediately once it reaches this many bytes.
  uint64_t max_batch_bytes = 32 * 1024;
};

/// Batches records destined for one storage segment and invokes a flush
/// callback with each completed batch.
class BoxcarBatcher {
 public:
  using FlushFn = std::function<void(std::vector<SealedRecord>)>;

  BoxcarBatcher(sim::Simulator* sim, BoxcarOptions options, FlushFn flush);

  /// Adds a record to the open batch, possibly scheduling or triggering a
  /// dispatch per policy.
  void Add(SealedRecord record);

  /// Force-dispatches the open batch (used at shutdown / crash points).
  void Flush();

  uint64_t batches_sent() const { return batches_sent_; }
  uint64_t records_sent() const { return records_sent_; }

  /// Mean records per dispatched batch (packing efficiency metric for C2).
  double MeanBatchFill() const {
    return batches_sent_ == 0
               ? 0.0
               : static_cast<double>(records_sent_) /
                     static_cast<double>(batches_sent_);
  }

 private:
  void Dispatch();

  sim::Simulator* sim_;
  BoxcarOptions options_;
  FlushFn flush_;
  std::vector<SealedRecord> open_batch_;
  uint64_t open_bytes_ = 0;
  size_t last_batch_size_ = 1;
  sim::EventId pending_dispatch_ = sim::kInvalidEvent;
  uint64_t batches_sent_ = 0;
  uint64_t records_sent_ = 0;
};

}  // namespace aurora::log
