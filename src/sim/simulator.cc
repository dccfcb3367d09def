#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace aurora::sim {

namespace {
constexpr size_t kInitialQueueCapacity = 1024;
/// Below this heap size tombstone compaction is not worth the rebuild.
constexpr size_t kCompactMinEntries = 64;
/// EventId reserves 32 bits for (slot index + 1).
constexpr uint32_t kMaxSlotIndex = 0xfffffffeu;
}  // namespace

Simulator::Simulator(uint64_t seed) : rng_(seed) {
  heap_.reserve(kInitialQueueCapacity);
  slots_.reserve(kInitialQueueCapacity);
}

uint32_t Simulator::AllocSlot() {
  if (free_head_ != 0) {
    const uint32_t index = free_head_ - 1;
    free_head_ = slots_[index].next_free;
    return index;
  }
  if (slots_.size() > kMaxSlotIndex) {
    std::fprintf(stderr, "simulator: event slab exhausted (2^32 slots)\n");
    std::abort();
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn = SimCallback();  // destroy the closure (and its captures) now
  slot.generation++;        // invalidates outstanding ids and heap entries
  slot.next_free = free_head_;
  free_head_ = index + 1;
}

EventId Simulator::InsertEvent(SimTime when, SimCallback fn,
                               const char* label) {
  assert(when >= now_);
  const uint32_t index = AllocSlot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.label = label;
  // The fire time is already known, so the full trace digest is computed
  // once here; execution just mixes the stored value into the fingerprint.
  slot.digest = Trace::EventDigest(when, label);
  heap_.push_back(HeapEntry{when, seq_++, index, slot.generation});
  std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
  ++live_;
  return (static_cast<EventId>(slot.generation) << 32) |
         static_cast<EventId>(index + 1);
}

EventId Simulator::Schedule(SimDuration delay, SimCallback fn,
                            const char* label) {
  assert(delay >= 0);
  return InsertEvent(now_ + delay, std::move(fn), label);
}

EventId Simulator::ScheduleAt(SimTime when, SimCallback fn,
                              const char* label) {
  return InsertEvent(when, std::move(fn), label);
}

void Simulator::Cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const uint32_t index = static_cast<uint32_t>(id & 0xffffffffu) - 1;
  const uint32_t generation = static_cast<uint32_t>(id >> 32);
  // A stale id (already fired, already cancelled, or from a recycled slot)
  // fails the generation check and is a clean no-op.
  if (index >= slots_.size() || slots_[index].generation != generation) {
    return;
  }
  ReleaseSlot(index);
  --live_;
  ++dead_in_heap_;
  if (dead_in_heap_ > heap_.size() / 2 && heap_.size() >= kCompactMinEntries) {
    CompactHeap();
  }
}

void Simulator::CompactHeap() {
  std::erase_if(heap_, [this](const HeapEntry& e) { return !SlotLive(e); });
  std::make_heap(heap_.begin(), heap_.end(), HeapGreater{});
  dead_in_heap_ = 0;
}

void Simulator::PruneDeadTop() {
  while (!heap_.empty() && !SlotLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
    heap_.pop_back();
    --dead_in_heap_;
  }
}

void Simulator::ObserveExecuted(SimTime at, const char* label,
                                uint64_t digest) {
  if (trace_out_ != nullptr) {
    trace_out_->events.push_back(TraceEventRecord{at, label, digest});
  }
  if (replay_ != nullptr && replay_divergence_.empty() &&
      replay_cursor_ < replay_->events.size()) {
    const TraceEventRecord& want = replay_->events[replay_cursor_];
    if (want.at != at || want.label != label) {
      replay_divergence_ =
          "replay diverged at event " + std::to_string(replay_cursor_) +
          ": recorded (t=" + std::to_string(want.at) + ", \"" + want.label +
          "\") vs executed (t=" + std::to_string(at) + ", \"" + label + "\")";
    }
    ++replay_cursor_;
  }
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
    const HeapEntry entry = heap_.back();
    heap_.pop_back();
    if (!SlotLive(entry)) {  // cancelled; tombstone reclaimed here
      --dead_in_heap_;
      continue;
    }
    Slot& slot = slots_[entry.slot];
    assert(entry.time >= now_);
    now_ = entry.time;
    ++executed_;
    fingerprint_ = Trace::MixFingerprint(fingerprint_, slot.digest);
    if (trace_out_ != nullptr || replay_ != nullptr) {
      ObserveExecuted(entry.time, slot.label, slot.digest);
    }
    // Move the callback out and recycle the slot BEFORE invoking: the
    // callback may schedule new events (possibly reusing this very slot).
    SimCallback fn = std::move(slot.fn);
    ReleaseSlot(entry.slot);
    --live_;
    fn();
    if (inspector_ && executed_ % inspect_every_ == 0) inspector_();
    return true;
  }
  return false;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime deadline) {
  for (;;) {
    // Reclaim tombstones at the top so the deadline check sees the event
    // that would actually fire next (a cancelled entry inside the window
    // must not smuggle a live event from beyond the deadline into Step).
    PruneDeadTop();
    if (heap_.empty() || heap_.front().time > deadline) break;
    Step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace aurora::sim
