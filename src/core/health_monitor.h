// Per-segment failure suspicion for the self-healing control plane.
//
// The paper's availability argument (§4.1) needs membership changes to be
// cheap enough to run *eagerly* on every suspected failure — "we do not
// need to wait to determine whether a failure is transient". This monitor
// produces those suspicions: it probes every segment of every protection
// group with SegmentState heartbeats from the metadata node, adapts each
// segment's probe timeout to its observed round-trip time (EWMA of RTT
// plus a jitter multiple), backs probes off exponentially while a segment
// is dark, and clears suspicion the moment contrary evidence arrives —
// either a late probe reply or an in-band write acknowledgement observed
// by the writer's storage driver.
//
// Everything runs on simulator time via scheduled events; the monitor
// never blocks and never drives the event loop itself, so it is safe to
// run underneath any workload (the *Blocking helpers pump the same loop).
// Suspicion is advisory: the repair planner (repair_planner.h) consumes
// Suspects() and decides; the quorum math stays the sole safety argument.
//
// Multi-tenant clusters (DESIGN.md §11): one monitor watches the whole
// fleet. It sweeps every volume's protection groups (ForEachPgConfig)
// and installs its in-band ack observer on EVERY tenant writer, so a
// suspicion raised by tenant A's probes can be cleared by tenant B's
// write acks to the same shared server — liveness evidence is about
// servers, not tenants.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/types.h"

namespace aurora::storage {
struct SegmentStateResponse;
}  // namespace aurora::storage

namespace aurora::core {

class AuroraCluster;

class HealthMonitor {
 public:
  struct SegmentHealth {
    double ewma_rtt_us = 0.0;
    double ewma_jitter_us = 0.0;
    int consecutive_failures = 0;
    int backoff_shift = 0;
    bool suspected = false;
    /// When the current suspicion was declared (0 while healthy).
    SimTime suspected_since = 0;
    /// When suspicion was MOST RECENTLY declared; sticky across recovery
    /// so the auditor can prove a repair decision had evidence behind it.
    SimTime last_suspected_at = 0;
    SimTime last_ok_at = 0;
    bool probe_in_flight = false;
    uint64_t probe_token = 0;
  };

  explicit HealthMonitor(AuroraCluster* cluster);
  ~HealthMonitor();

  /// Begins probing (idempotent). Nothing probes until Start().
  void Start();
  /// Stops issuing probes; health_ is kept for inspection. Also detaches
  /// the ack observer from the current writer.
  void Stop();
  bool running() const { return running_; }

  bool IsSuspect(SegmentId id) const;
  std::vector<SegmentId> Suspects() const;

  /// 0 if the segment is unknown / was never in that state.
  SimTime suspected_since(SegmentId id) const;
  SimTime last_suspected_at(SegmentId id) const;
  SimTime last_ok_at(SegmentId id) const;

  /// Current adaptive timeout for one probe of `id`.
  SimDuration ProbeTimeoutFor(SegmentId id) const;

  /// In-band evidence from the data path: a successful write ack proves
  /// the segment alive and clears suspicion immediately (ok=false is
  /// ignored — absence of acks is what the probes measure).
  void ObserveAck(SegmentId id, bool ok);

  const std::map<SegmentId, SegmentHealth>& health() const { return health_; }

  uint64_t probes_sent() const { return probes_sent_; }
  uint64_t probe_timeouts() const { return probe_timeouts_; }
  uint64_t suspicions_declared() const { return suspicions_declared_; }

 private:
  void Sweep();
  void ScheduleProbe(SegmentId id, SimDuration delay);
  void SendProbe(SegmentId id);
  void OnProbeReply(SegmentId id, uint64_t token, SimTime sent_at,
                    const storage::SegmentStateResponse& response);
  void OnProbeTimeout(SegmentId id, uint64_t token);
  void OnProbeFailure(SegmentHealth& h);
  void MarkHealthy(SegmentHealth& h);
  SimDuration BackoffInterval(const SegmentHealth& h) const;

  AuroraCluster* cluster_;
  bool running_ = false;
  /// Invalidates callbacks scheduled before the latest Start()/Stop().
  uint64_t generation_ = 0;
  /// Liveness anchor for the ack observer: DbInstance persists the
  /// observer lambda and re-applies it to every rebuilt driver, so it
  /// can outlive this monitor. The lambda holds a weak_ptr to this
  /// handle (reset on destruction), never a raw `this`.
  std::shared_ptr<HealthMonitor*> live_;

  std::map<SegmentId, SegmentHealth> health_;

  uint64_t probes_sent_ = 0;
  uint64_t probe_timeouts_ = 0;
  uint64_t suspicions_declared_ = 0;
};

}  // namespace aurora::core
