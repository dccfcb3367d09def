// Per-layer wall-time attribution from outside the program.
//
// Installs the simulator's public post-event hook (Simulator::SetInspector
// with every_n = 1). After each executed event it reads the public
// counters of every layer, and charges the wall time since the previous
// event's inspection to the layers whose counters moved (split evenly when
// several moved). Events that move no layer counter are charged to an
// explicit unattributed bucket. The inspector only reads state, so the
// schedule fingerprint of a traced run equals the untraced one.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace aurora::core {
class AuroraCluster;
class ClientSession;
class HealthMonitor;
class RepairPlanner;
}  // namespace aurora::core

namespace perfbench {

enum Layer : int { kEngine, kStorage, kReplica, kCore, kLayerCount };
const char* LayerName(int layer);

/// Actors the benchmark created on top of the cluster (may be empty/null).
struct TracedActors {
  std::vector<const aurora::core::ClientSession*> sessions;
  const aurora::core::HealthMonitor* monitor = nullptr;
  const aurora::core::RepairPlanner* planner = nullptr;
};

class LayerTrace {
 public:
  LayerTrace(aurora::core::AuroraCluster* cluster, TracedActors actors);
  ~LayerTrace();

  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  void Attach();
  void Detach();
  /// Restarts the interval clock after the benchmark paused to measure
  /// something itself, so that pause is charged to no event.
  void Resume() { last_at_ = std::chrono::steady_clock::now(); }

  double layer_ns(int layer) const { return layer_ns_[layer]; }
  double unattributed_ns() const { return unattributed_ns_; }
  uint64_t events() const { return events_; }

 private:
  using Signatures = std::array<uint64_t, kLayerCount>;
  Signatures Read() const;
  void OnEvent();

  aurora::core::AuroraCluster* cluster_;
  TracedActors actors_;
  bool attached_ = false;
  Signatures last_{};
  std::chrono::steady_clock::time_point last_at_;
  std::array<double, kLayerCount> layer_ns_{};
  double unattributed_ns_ = 0;
  uint64_t events_ = 0;
};

}  // namespace perfbench
