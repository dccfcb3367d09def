// Deterministic discrete-event simulator.
//
// This is the substrate that replaces the paper's multi-AZ AWS testbed. All
// protocol components run as callbacks on a virtual clock; identical seeds
// produce identical executions, which makes the failure-injection tests and
// the latency-shape benchmarks reproducible.
//
// Engine internals (DESIGN.md §8): events live in a slab of recycled slots
// (callback + trace digest), the ready queue is a binary heap over compact
// 24-byte (time, seq, slot, generation) keys, and EventId encodes the slot
// index plus a generation tag so Cancel() and liveness checks are O(1)
// array operations — no per-event hash-set bookkeeping, and heap sifts
// never move closures. One slab, one heap, one clock and one (time, seq)
// counter: the loop is serial by design.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/callback.h"
#include "src/sim/trace.h"

namespace aurora::sim {

/// Identifies a scheduled event; usable with Cancel(). Encodes
/// (generation << 32) | (slot index + 1); the generation tag makes a stale
/// id (already fired or cancelled) a harmless no-op.
using EventId = uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Event loop over virtual microseconds.
///
/// Events at equal timestamps run in scheduling order (FIFO), which keeps
/// executions deterministic without artificial tie-breaking jitter.
class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Virtual now.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at Now() + delay (delay >= 0). `label` names
  /// the schedule site in captured traces (must be a string literal or
  /// outlive the event); unlabeled events trace as "".
  EventId Schedule(SimDuration delay, SimCallback fn, const char* label = "");

  /// Schedules at an absolute virtual time (>= Now()).
  EventId ScheduleAt(SimTime when, SimCallback fn, const char* label = "");

  /// Best-effort cancellation; a no-op if already fired or unknown. The
  /// callback (and everything it captured) is destroyed immediately — a
  /// cancelled far-future event does not pin its captures until the heap
  /// entry surfaces.
  void Cancel(EventId id);

  /// Runs until the event queue is empty.
  void Run();

  /// Runs all events with timestamp <= deadline; clock lands on deadline.
  void RunUntil(SimTime deadline);

  /// Runs for `duration` of virtual time from Now().
  void RunFor(SimDuration duration) { RunUntil(Now() + duration); }

  /// Executes the single next event. Returns false if the queue is empty.
  bool Step();

  /// Number of scheduled events that will still fire (cancelled events are
  /// excluded, whether or not their heap entry has been reclaimed).
  size_t PendingEvents() const { return live_; }
  uint64_t ExecutedEvents() const { return executed_; }

  /// Running FNV-1a digest over every executed event (time + label), in
  /// execution order. Two runs with equal fingerprints executed the same
  /// event schedule; see Trace::MixFingerprint. Always maintained (one
  /// short hash per event), so any pair of runs can be compared after the
  /// fact without having armed anything up front.
  uint64_t ScheduleFingerprint() const { return fingerprint_; }

  // -- Trace capture & replay verification (src/sim/trace.h) --------------
  //
  // StartTrace appends every subsequently executed event to `out`;
  // BeginReplayCheck verifies each executed event against a previously
  // captured trace instead. A trace never drives execution — closures are
  // not serializable — the caller re-runs the same seeded scenario and the
  // simulator proves the schedules identical (or reports the first
  // divergence). Recording and replay-checking may be active together
  // (e.g. re-capturing while verifying).

  /// Starts appending executed events to `out` (not owned; must outlive
  /// recording). Passing nullptr stops recording.
  void StartTrace(Trace* out) { trace_out_ = out; }
  void StopTrace() { trace_out_ = nullptr; }

  /// Starts verifying executed events against `trace` (not owned). Each
  /// executed event is compared to the next recorded one; the first
  /// mismatch (or running past the recorded stream) is captured once.
  void BeginReplayCheck(const Trace* trace) {
    replay_ = trace;
    replay_cursor_ = 0;
    replay_divergence_.clear();
  }
  void EndReplayCheck() { replay_ = nullptr; }

  /// True once a replay check saw a mismatch. Events beyond the recorded
  /// stream's end are NOT a divergence (the capturing run may have stopped
  /// mid-scenario); a shorter replay shows up as fingerprint inequality.
  bool ReplayDiverged() const { return !replay_divergence_.empty(); }
  /// Human-readable first divergence ("" while none).
  const std::string& ReplayDivergence() const { return replay_divergence_; }

  /// Root generator; actors fork children from it for independent streams.
  Rng& rng() { return rng_; }

  /// Installs a post-event inspector: `fn` runs after every `every_n`-th
  /// executed event (n >= 1). The invariant auditor hangs off this hook so
  /// it can observe the cluster at real event boundaries — between any two
  /// events the system must be in a protocol-legal state. The inspector
  /// must not schedule events or mutate actor state.
  void SetInspector(uint64_t every_n, std::function<void()> fn) {
    inspect_every_ = every_n == 0 ? 1 : every_n;
    inspector_ = std::move(fn);
  }
  void ClearInspector() { inspector_ = nullptr; }

  // -- Introspection for engine tests (not part of the public contract) ---
  /// Heap entries currently held, live and tombstoned alike.
  size_t HeapEntriesForTest() const { return heap_.size(); }
  /// Tombstoned (cancelled but not yet reclaimed) heap entries.
  size_t DeadHeapEntriesForTest() const { return dead_in_heap_; }

 private:
  /// Slab slot: callback plus the trace identity of the scheduled event.
  /// The digest is precomputed at schedule time (the fire time is known
  /// then), so the per-execution trace cost is one integer mix instead of
  /// an FNV pass over the label string.
  struct Slot {
    SimCallback fn;
    uint64_t digest = 0;
    const char* label = "";   // string literal, never owned
    uint32_t generation = 0;  // bumped on every release; tags EventId
    uint32_t next_free = 0;   // freelist link (index + 1; 0 = end)
  };

  /// Compact heap key: 24 bytes, no closure movement during sifts.
  struct HeapEntry {
    SimTime time;
    uint64_t seq;  // scheduling order; breaks timestamp ties FIFO
    uint32_t slot;
    uint32_t generation;
  };
  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  uint32_t AllocSlot();
  void ReleaseSlot(uint32_t index);
  bool SlotLive(const HeapEntry& e) const {
    return slots_[e.slot].generation == e.generation;
  }
  void CompactHeap();
  void PruneDeadTop();
  EventId InsertEvent(SimTime when, SimCallback fn, const char* label);
  void ObserveExecuted(SimTime at, const char* label, uint64_t digest);

  SimTime now_ = 0;
  uint64_t seq_ = 0;
  uint64_t executed_ = 0;
  std::vector<Slot> slots_;
  uint32_t free_head_ = 0;  // index + 1; 0 = empty freelist
  size_t live_ = 0;
  std::vector<HeapEntry> heap_;
  size_t dead_in_heap_ = 0;

  Rng rng_;
  uint64_t inspect_every_ = 1;
  std::function<void()> inspector_;

  uint64_t fingerprint_ = 0;
  Trace* trace_out_ = nullptr;
  const Trace* replay_ = nullptr;
  size_t replay_cursor_ = 0;
  std::string replay_divergence_;
};

}  // namespace aurora::sim
