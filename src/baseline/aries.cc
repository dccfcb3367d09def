#include "src/baseline/aries.h"

namespace aurora::baseline {

namespace {
/// Log read bandwidth during analysis/redo (bytes/us).
constexpr double kLogScanBytesPerUs = 500.0;
/// CPU cost to apply one redo record.
constexpr SimDuration kApplyCostPerRecord = 2;
/// Average bytes per log record.
constexpr uint64_t kBytesPerRecord = 256;
/// Checkpoint every N records.
constexpr uint64_t kCheckpointIntervalRecords = 100000;
/// Fraction of replayed records needing a random page read (cache cold).
constexpr double kPageReadFraction = 0.02;
constexpr SimDuration kPageReadCost = 80;
}  // namespace

void AriesEngine::AppendRecords(uint64_t n) {
  records_since_checkpoint_ += n;
  while (records_since_checkpoint_ >= kCheckpointIntervalRecords) {
    records_since_checkpoint_ -= kCheckpointIntervalRecords;
  }
}

SimDuration AriesEngine::ExpectedRecoveryTime() const {
  const double n = static_cast<double>(records_since_checkpoint_);
  double time = 0.0;
  // Sequential log scan (analysis + redo passes read the log once each in
  // our simplified model: 1.5x to charge analysis at half weight).
  time += 1.5 * n * static_cast<double>(kBytesPerRecord) / kLogScanBytesPerUs;
  // Apply cost.
  time += n * static_cast<double>(kApplyCostPerRecord);
  // Random page reads for cold pages touched by redo.
  time += n * kPageReadFraction * static_cast<double>(kPageReadCost);
  return static_cast<SimDuration>(time);
}

void AriesEngine::Recover(std::function<void(SimDuration)> cb) {
  const SimTime start = sim_->Now();
  const SimDuration cost = ExpectedRecoveryTime();
  sim_->Schedule(cost, [this, start, cb = std::move(cb)]() {
    cb(sim_->Now() - start);
  });
}

}  // namespace aurora::baseline
