// ARIES-style checkpoint + redo-replay recovery baseline (§2.4, C7).
//
// A traditional engine must, at crash recovery, (1) read the log from the
// last checkpoint, (2) replay redo to rebuild page state, and (3) undo
// loser transactions — all BEFORE opening for business. Aurora's claim:
// "No redo replay is required as part of crash recovery since segments
// are able to generate data blocks on their own"; recovery cost is a few
// quorum round-trips, independent of log depth. This model prices the
// traditional path on the same simulated disk so the F4 benchmark can
// plot time-to-open vs. log-depth-since-checkpoint for both systems.

#pragma once

#include <cstdint>
#include <functional>

#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace aurora::baseline {

/// Tracks enough log/checkpoint state to price a recovery.
class AriesEngine {
 public:
  explicit AriesEngine(sim::Simulator* sim) : sim_(sim) {}

  /// Appends `n` records to the log (workload generation).
  void AppendRecords(uint64_t n);

  /// Takes a (fuzzy) checkpoint now.
  void Checkpoint() { records_since_checkpoint_ = 0; }

  uint64_t records_since_checkpoint() const {
    return records_since_checkpoint_;
  }

  /// Simulated crash recovery: cb(elapsed) after the redo pass completes
  /// (undo is modeled as deferrable, like Aurora's, for a fair floor).
  void Recover(std::function<void(SimDuration)> cb);

  /// Closed-form expected recovery time (for table generation).
  SimDuration ExpectedRecoveryTime() const;

 private:
  sim::Simulator* sim_;
  uint64_t records_since_checkpoint_ = 0;
};

}  // namespace aurora::baseline
