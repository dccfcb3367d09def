#include "src/log/boxcar.h"

#include <utility>

namespace aurora::log {

BoxcarBatcher::BoxcarBatcher(sim::Simulator* sim, BoxcarOptions options,
                             FlushFn flush)
    : sim_(sim), options_(options), flush_(std::move(flush)) {}

void BoxcarBatcher::Add(SealedRecord record) {
  const bool was_empty = open_batch_.empty();
  // A batch leaves with its buffer. Size the next one like the last when
  // it opens, so a batch costs one allocation rather than one per
  // doubling, and an idle channel holds none.
  if (was_empty) open_batch_.reserve(last_batch_size_);
  open_bytes_ += record->SerializedSize();
  open_batch_.push_back(std::move(record));

  if (open_bytes_ >= options_.max_batch_bytes) {
    Dispatch();
    return;
  }
  if (was_empty) {
    const SimDuration delay = options_.policy == BoxcarPolicy::kFillOrTimeout
                                  ? options_.fill_timeout
                                  : options_.dispatch_delay;
    pending_dispatch_ = sim_->Schedule(delay, [this]() {
      pending_dispatch_ = sim::kInvalidEvent;
      Dispatch();
    });
  }
}

void BoxcarBatcher::Flush() { Dispatch(); }

void BoxcarBatcher::Dispatch() {
  if (pending_dispatch_ != sim::kInvalidEvent) {
    sim_->Cancel(pending_dispatch_);
    pending_dispatch_ = sim::kInvalidEvent;
  }
  if (open_batch_.empty()) return;
  batches_sent_++;
  records_sent_ += open_batch_.size();
  last_batch_size_ = open_batch_.size();
  std::vector<SealedRecord> batch;
  batch.swap(open_batch_);
  open_bytes_ = 0;
  flush_(std::move(batch));
}

}  // namespace aurora::log
