// Stochastic and scripted failure injection.
//
// Drives the Figure-1 availability experiment (independent segment failures
// plus correlated AZ failures) and the fault-tolerance integration tests.
// The paper's durability argument (§2.1) is about the joint probability of
// two independent segment failures plus an AZ failure within one
// detect-and-repair window; this injector produces exactly that process.

#pragma once

#include <functional>
#include <vector>

#include "src/common/random.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace aurora::sim {

/// Parameters of the background failure process.
struct FailureModel {
  /// Mean time to failure per node (exponential inter-arrival).
  SimDuration node_mttf = 3600LL * kSecond;
  /// Mean time to detect + repair a failed node.
  SimDuration node_mttr = 10 * kSecond;
  /// Mean time between whole-AZ failures (0 disables them).
  SimDuration az_mttf = 0;
  /// AZ outage duration.
  SimDuration az_mttr = 60 * kSecond;
};

/// Drives crash/repair events against a Network according to a
/// FailureModel, or via explicit scripted calls.
class FailureInjector {
 public:
  FailureInjector(Simulator* sim, Network* network, FailureModel model = {});

  /// Starts the background Poisson failure process for `nodes` and
  /// (optionally) the AZ failure process for `azs`.
  void Start(std::vector<NodeId> nodes, std::vector<AzId> azs = {});
  void Stop();

  /// Scripted faults.
  void CrashNodeAt(SimTime when, NodeId node);
  void RestartNodeAt(SimTime when, NodeId node);
  void SlowNodeAt(SimTime when, NodeId node, double factor,
                  SimDuration duration);

  /// Flapping node: `count` crash→restart cycles with exponentially drawn
  /// down/up dwell times of mean `period`, ending with the node UP. The
  /// nastiest case for eager repair — the suspect keeps coming back, so
  /// transitions must keep reverting (Figure 5's roll-back edge). Dwell
  /// draws go through Draw(), so they are recorded to / replayed from an
  /// attached trace like the background process and shrink with it.
  void Flap(NodeId node, SimDuration period, int count);

  uint64_t node_failures() const { return node_failures_; }
  uint64_t az_failures() const { return az_failures_; }

  // -- Decision capture & replay (src/sim/trace.h) -------------------------
  //
  // Every stochastic draw of the background process (failure delay, repair
  // delay, AZ outage arrival) is a Decision. Recording appends them to a
  // trace; a replaying injector consumes the recorded sequence instead of
  // rolling its RNG, so a captured failure schedule re-executes exactly.
  // Scripted faults (CrashNodeAt etc.) are already deterministic and are
  // not recorded.

  /// Appends every subsequent decision to `trace` (not owned; nullptr
  /// stops recording).
  void RecordDecisionsTo(Trace* trace) { record_ = trace; }

  /// Consumes `trace`'s recorded decisions (in order) instead of the RNG.
  /// Once the recording is exhausted the injector falls back to its RNG —
  /// the replayed window is exact, anything past the capture is best
  /// effort — and counts the underrun in replay_mismatches().
  void ReplayDecisionsFrom(const Trace* trace) {
    replay_ = trace;
    replay_cursor_ = 0;
  }

  /// Draws where the recording ran out or the decision kind disagreed
  /// (schedule drift between capture and replay).
  uint64_t replay_mismatches() const { return replay_mismatches_; }

 private:
  void ScheduleNodeFailure(NodeId node);
  void ScheduleAzFailure(AzId az);

  /// One stochastic draw: exponential with `mean`, recorded to / replayed
  /// from the attached trace under (`kind`, `subject`).
  SimDuration Draw(const char* kind, uint64_t subject, SimDuration mean);

  Simulator* sim_;
  Network* network_;
  FailureModel model_;
  Rng rng_;
  bool running_ = false;
  uint64_t generation_ = 0;  // invalidates scheduled background events
  uint64_t node_failures_ = 0;
  uint64_t az_failures_ = 0;

  Trace* record_ = nullptr;
  const Trace* replay_ = nullptr;
  size_t replay_cursor_ = 0;
  uint64_t replay_mismatches_ = 0;
};

}  // namespace aurora::sim
