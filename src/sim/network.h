// Simulated datacenter network: AZ topology, per-link latency
// distributions, partitions, node liveness, and traffic accounting.
//
// Matches the environment the paper assumes: AZs are "connected to other
// AZs through low-latency networking links, but isolated for most faults"
// (§1). Cross-AZ links are slower than intra-AZ links; an AZ failure takes
// down every node placed in it at once.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace aurora::sim {

/// Receives crash/restart notifications so protocol actors can drop
/// volatile state (the paper's "local ephemeral state", §2.4).
class NodeLifecycleListener {
 public:
  virtual ~NodeLifecycleListener() = default;
  virtual void OnCrash() {}
  virtual void OnRestart() {}
};

/// Per-message network accounting, used by the network-traffic experiment
/// (C8: log-only writes vs page shipping).
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_delivered = 0;
  /// Partition edges installed (Partition(a, b, true) calls).
  uint64_t partitions_set = 0;
};

/// Configuration for link latency. Defaults approximate intra-region EC2:
/// ~150us intra-AZ, ~600us cross-AZ medians with lognormal jitter and a
/// small heavy tail.
struct NetworkOptions {
  LatencyDistribution intra_az =
      LatencyDistribution::LogNormal(150, 0.35, 0.01, 8.0);
  LatencyDistribution cross_az =
      LatencyDistribution::LogNormal(600, 0.35, 0.01, 8.0);
  /// Simulated NIC bandwidth; serialization delay = bytes / bandwidth.
  /// 0 disables the bandwidth term.
  double bytes_per_us = 1250.0;  // ~10 Gbit/s
};

/// The network fabric. Nodes register with an AZ placement; sends sample
/// link latency, honor partitions and liveness, and account traffic.
class Network {
 public:
  Network(Simulator* sim, NetworkOptions options = {});

  /// Registers `node` in `az`. Listener may be null; it is invoked on
  /// Crash/Restart transitions.
  void RegisterNode(NodeId node, AzId az,
                    NodeLifecycleListener* listener = nullptr);

  AzId AzOf(NodeId node) const;

  bool IsUp(NodeId node) const;
  /// Crashes `node`: pending deliveries to it are dropped and its listener
  /// is notified.
  void Crash(NodeId node);
  void Restart(NodeId node);

  /// Fails / restores an entire AZ (crashes every node placed there).
  void FailAz(AzId az);
  void RestoreAz(AzId az);
  bool IsAzFailed(AzId az) const;

  /// Symmetric pairwise partition control.
  void Partition(NodeId a, NodeId b, bool blocked);
  bool IsPartitioned(NodeId a, NodeId b) const;
  /// Partition edges currently blocked.
  size_t ActivePartitions() const;

  /// Multiplies sampled latency for traffic to/from `node` ("slow node" /
  /// "busy node" injection for the hedged-read experiment, §3.1).
  void SetNodeSlowdown(NodeId node, double factor);
  double NodeSlowdown(NodeId node) const;

  /// Sends `bytes` from `from` to `to`; `deliver` runs after sampled
  /// latency if both endpoints are alive at delivery time and the pair is
  /// not partitioned. Messages in flight when the destination crashes are
  /// dropped (at-most-once delivery, §2.3: "any given write may be lost
  /// for any reason"). Templated on the delivery callable so the closure
  /// moves straight into the event slab — no std::function heap hop on the
  /// per-message hot path.
  template <typename F>
  void Send(NodeId from, NodeId to, uint64_t bytes, F&& deliver) {
    const SendPlan plan = PlanSend(from, to, bytes);
    if (!plan.deliverable) return;
    sim_->Schedule(
        plan.latency,
        [this, to, bytes, incarnation = plan.dst_incarnation,
         deliver = std::forward<F>(deliver)]() mutable {
          if (Arrives(to, incarnation, bytes)) deliver();
        },
        "net.deliver");
  }

  /// Samples the one-way latency the next Send(from, to) would see.
  SimDuration SampleLatency(NodeId from, NodeId to, uint64_t bytes);

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  Simulator* simulator() { return sim_; }

 private:
  struct NodeState {
    AzId az = 0;
    bool up = true;
    // Incremented on each crash; in-flight deliveries capture the value at
    // send time and are dropped if it changed ("the socket died").
    uint64_t incarnation = 0;
    double slowdown = 1.0;
    NodeLifecycleListener* listener = nullptr;
  };

  /// Send-time accounting + routing decision (non-template half of Send).
  struct SendPlan {
    bool deliverable = false;
    SimDuration latency = 0;
    uint64_t dst_incarnation = 0;
  };
  SendPlan PlanSend(NodeId from, NodeId to, uint64_t bytes);
  /// Delivery-time liveness check + accounting; true if `deliver` runs.
  bool Arrives(NodeId to, uint64_t dst_incarnation, uint64_t bytes);

  uint64_t PairKey(NodeId a, NodeId b) const;

  Simulator* sim_;
  NetworkOptions options_;
  Rng rng_;
  NetworkStats stats_;
  // Per-directional-link last scheduled delivery time (FIFO ordering).
  std::unordered_map<uint64_t, SimTime> link_clock_;
  std::unordered_map<NodeId, NodeState> nodes_;
  std::unordered_map<uint64_t, bool> partitions_;
  std::unordered_map<AzId, bool> failed_azs_;
};

}  // namespace aurora::sim
