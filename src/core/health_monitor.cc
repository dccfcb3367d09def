#include "src/core/health_monitor.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/logging.h"
#include "src/core/cluster.h"
#include "src/engine/db_instance.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/call.h"
#include "src/storage/messages.h"
#include "src/storage/storage_node.h"

namespace aurora::core {

namespace {
/// Steady-state probe period per segment.
constexpr SimDuration kProbeInterval = 50 * kMillisecond;
/// Clamp for the adaptive probe timeout.
constexpr SimDuration kMinTimeout = 5 * kMillisecond;
constexpr SimDuration kMaxTimeout = 500 * kMillisecond;
/// RTT estimate seeded before the first sample.
constexpr SimDuration kInitialRtt = 2 * kMillisecond;
/// timeout = ewma_rtt + kJitterMult * ewma_jitter, clamped.
constexpr double kJitterMult = 4.0;
/// EWMA smoothing factor for RTT and jitter.
constexpr double kEwmaAlpha = 0.25;
/// Failures in a row before suspicion; one timeout is often tail latency.
constexpr int kSuspectAfter = 2;
/// The probe period doubles per failure in a row, at most this many times.
constexpr int kMaxBackoffShift = 3;
}  // namespace

HealthMonitor::HealthMonitor(AuroraCluster* cluster)
    : cluster_(cluster), live_(std::make_shared<HealthMonitor*>(this)) {}

void HealthMonitor::Start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  Sweep();
}

HealthMonitor::~HealthMonitor() = default;
// ^ live_ dies here, so every deferred callback — the ack observer a
//   DbInstance persists (and re-applies to every rebuilt driver) as well
//   as simulator-queued sweep/probe/timeout events — fails its weak lock
//   and goes inert instead of touching a destroyed monitor.

void HealthMonitor::Stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;
  // Detach from every volume's writer so a stopped monitor stops
  // consuming ack evidence immediately (a failover after Stop() would
  // otherwise re-install the stale lambda on the rebuilt driver).
  for (size_t volume = 0; volume < cluster_->VolumeCount(); ++volume) {
    if (auto* writer = cluster_->writer(static_cast<VolumeId>(volume))) {
      writer->SetAckObserver(nullptr);
    }
  }
}

bool HealthMonitor::IsSuspect(SegmentId id) const {
  auto it = health_.find(id);
  return it != health_.end() && it->second.suspected;
}

std::vector<SegmentId> HealthMonitor::Suspects() const {
  std::vector<SegmentId> out;
  for (const auto& [id, h] : health_) {
    if (h.suspected) out.push_back(id);
  }
  return out;
}

SimTime HealthMonitor::suspected_since(SegmentId id) const {
  auto it = health_.find(id);
  return it == health_.end() ? 0 : it->second.suspected_since;
}

SimTime HealthMonitor::last_suspected_at(SegmentId id) const {
  auto it = health_.find(id);
  return it == health_.end() ? 0 : it->second.last_suspected_at;
}

SimTime HealthMonitor::last_ok_at(SegmentId id) const {
  auto it = health_.find(id);
  return it == health_.end() ? 0 : it->second.last_ok_at;
}

SimDuration HealthMonitor::ProbeTimeoutFor(SegmentId id) const {
  auto it = health_.find(id);
  if (it == health_.end()) return kMaxTimeout;
  const SegmentHealth& h = it->second;
  const double raw = h.ewma_rtt_us + kJitterMult * h.ewma_jitter_us;
  return std::clamp(static_cast<SimDuration>(std::llround(raw)),
                    kMinTimeout, kMaxTimeout);
}

void HealthMonitor::ObserveAck(SegmentId id, bool ok) {
  if (!ok) return;
  auto it = health_.find(id);
  if (it == health_.end()) return;
  MarkHealthy(it->second);
}

void HealthMonitor::Sweep() {
  if (!running_) return;
  const uint64_t gen = generation_;
  // Each writer's storage driver is the richest liveness source for its
  // volume: every acked boxcar proves its segment alive. Observers are
  // re-installed each sweep because failover builds a fresh driver.
  // Segment ids are fleet-unique, so all volumes share one health table.
  for (size_t v = 0; v < cluster_->VolumeCount(); ++v) {
    auto* writer = cluster_->writer(static_cast<VolumeId>(v));
    if (writer == nullptr) continue;
    // The observer must not capture a raw `this`: DbInstance persists it
    // and re-applies it to every rebuilt driver, so it can fire after
    // this monitor is stopped or destroyed. The weak handle makes any
    // such late call a no-op instead of a use-after-free.
    std::weak_ptr<HealthMonitor*> weak = live_;
    writer->SetAckObserver([weak, gen](SegmentId seg, bool ok) {
      auto live = weak.lock();
      if (!live) return;
      HealthMonitor* self = *live;
      if (!self->running_ || gen != self->generation_) return;
      self->ObserveAck(seg, ok);
    });
  }
  std::set<SegmentId> current;
  size_t idx = 0;
  cluster_->ForEachPgConfig([&](VolumeId, const quorum::PgConfig& pg) {
    for (const auto& member : pg.AllMembers()) {
      current.insert(member.id);
      auto [it, fresh] = health_.try_emplace(member.id);
      if (fresh) {
        it->second.ewma_rtt_us = static_cast<double>(kInitialRtt);
        // Stagger first probes deterministically so six segments do not
        // heartbeat in one burst.
        ScheduleProbe(member.id, (idx % 6) * (kProbeInterval / 6));
      }
      ++idx;
    }
  });
  for (auto it = health_.begin(); it != health_.end();) {
    if (current.contains(it->first)) {
      ++it;
    } else {
      it = health_.erase(it);
    }
  }
  std::weak_ptr<HealthMonitor*> weak = live_;
  cluster_->sim().Schedule(
      kProbeInterval,
      [weak, gen]() {
        auto live = weak.lock();
        if (!live) return;
        HealthMonitor* self = *live;
        if (!self->running_ || gen != self->generation_) return;
        self->Sweep();
      },
      "health.sweep");
}

void HealthMonitor::ScheduleProbe(SegmentId id, SimDuration delay) {
  const uint64_t gen = generation_;
  std::weak_ptr<HealthMonitor*> weak = live_;
  cluster_->sim().Schedule(
      delay,
      [weak, gen, id]() {
        auto live = weak.lock();
        if (!live) return;
        HealthMonitor* self = *live;
        if (!self->running_ || gen != self->generation_) return;
        self->SendProbe(id);
      },
      "health.probe");
}

void HealthMonitor::SendProbe(SegmentId id) {
  auto it = health_.find(id);
  if (it == health_.end()) return;  // departed; the sweep erased it
  const quorum::SegmentInfo* info = nullptr;
  cluster_->ForEachPgConfig([&](VolumeId, const quorum::PgConfig& pg) {
    if (info == nullptr) info = pg.FindSegment(id);
  });
  if (info == nullptr) return;
  SegmentHealth& h = it->second;
  const uint64_t token = ++h.probe_token;
  h.probe_in_flight = true;
  ++probes_sent_;
  const SimTime sent_at = cluster_->sim().Now();
  const uint64_t gen = generation_;
  // Every deferred callback below goes through the weak handle, never a
  // raw `this`: probe replies and timeouts can fire from the simulator
  // queue after the monitor is stopped or destroyed.
  std::weak_ptr<HealthMonitor*> weak = live_;
  cluster_->sim().Schedule(
      ProbeTimeoutFor(id),
      [weak, gen, id, token]() {
        auto live = weak.lock();
        if (!live) return;
        HealthMonitor* self = *live;
        if (!self->running_ || gen != self->generation_) return;
        self->OnProbeTimeout(id, token);
      },
      "health.probe_timeout");
  storage::Call<&storage::StorageNode::HandleSegmentState>(
      &cluster_->network(), cluster_->metadata().id(), info->node,
      [cluster = cluster_](NodeId node) { return cluster->node(node); },
      storage::SegmentStateRequest{id},
      [weak, gen, id, token,
       sent_at](storage::SegmentStateResponse response) {
        auto live = weak.lock();
        if (!live) return;
        HealthMonitor* self = *live;
        if (!self->running_ || gen != self->generation_) return;
        self->OnProbeReply(id, token, sent_at, response);
      });
}

void HealthMonitor::OnProbeReply(
    SegmentId id, uint64_t token, SimTime sent_at,
    const storage::SegmentStateResponse& response) {
  auto hit = health_.find(id);
  if (hit == health_.end()) return;
  SegmentHealth& sh = hit->second;
  const bool current = token == sh.probe_token && sh.probe_in_flight;
  if (!response.status.ok()) {
    // An explicit error reply (e.g. the segment was dropped) counts
    // as a failed probe, but only for the probe still in flight.
    if (current) {
      sh.probe_in_flight = false;
      OnProbeFailure(sh);
      ScheduleProbe(id, BackoffInterval(sh));
    }
    return;
  }
  if (current) {
    sh.probe_in_flight = false;
    const double rtt = static_cast<double>(cluster_->sim().Now() - sent_at);
    const double alpha = kEwmaAlpha;
    sh.ewma_jitter_us = (1.0 - alpha) * sh.ewma_jitter_us +
                        alpha * std::abs(rtt - sh.ewma_rtt_us);
    sh.ewma_rtt_us = (1.0 - alpha) * sh.ewma_rtt_us + alpha * rtt;
    MarkHealthy(sh);
    ScheduleProbe(id, kProbeInterval);
  } else {
    // Late success after its timeout already fired: the node is
    // slow, not dead — clear suspicion, but the timeout path owns
    // the next probe.
    MarkHealthy(sh);
  }
}

void HealthMonitor::OnProbeTimeout(SegmentId id, uint64_t token) {
  auto it = health_.find(id);
  if (it == health_.end()) return;
  SegmentHealth& h = it->second;
  if (token != h.probe_token || !h.probe_in_flight) return;
  h.probe_in_flight = false;
  ++probe_timeouts_;
  OnProbeFailure(h);
  ScheduleProbe(id, BackoffInterval(h));
}

void HealthMonitor::OnProbeFailure(SegmentHealth& h) {
  ++h.consecutive_failures;
  h.backoff_shift = std::min(h.backoff_shift + 1, kMaxBackoffShift);
  if (!h.suspected && h.consecutive_failures >= kSuspectAfter) {
    h.suspected = true;
    h.suspected_since = cluster_->sim().Now();
    h.last_suspected_at = h.suspected_since;
    ++suspicions_declared_;
  }
}

void HealthMonitor::MarkHealthy(SegmentHealth& h) {
  h.consecutive_failures = 0;
  h.backoff_shift = 0;
  h.last_ok_at = cluster_->sim().Now();
  if (h.suspected) {
    h.suspected = false;
    h.suspected_since = 0;
  }
}

SimDuration HealthMonitor::BackoffInterval(const SegmentHealth& h) const {
  return kProbeInterval << h.backoff_shift;
}

}  // namespace aurora::core
