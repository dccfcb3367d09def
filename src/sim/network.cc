#include "src/sim/network.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace aurora::sim {

Network::Network(Simulator* sim, NetworkOptions options)
    : sim_(sim), options_(options), rng_(sim->rng().Fork()) {}

void Network::RegisterNode(NodeId node, AzId az,
                           NodeLifecycleListener* listener) {
  assert(!nodes_.contains(node));
  NodeState st;
  st.az = az;
  st.listener = listener;
  nodes_[node] = st;
}

AzId Network::AzOf(NodeId node) const {
  auto it = nodes_.find(node);
  assert(it != nodes_.end());
  return it->second.az;
}

bool Network::IsUp(NodeId node) const {
  auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.up;
}

void Network::Crash(NodeId node) {
  auto it = nodes_.find(node);
  assert(it != nodes_.end());
  if (!it->second.up) return;
  it->second.up = false;
  it->second.incarnation++;
  AURORA_DEBUG << "node " << node << " crashed";
  if (it->second.listener != nullptr) it->second.listener->OnCrash();
}

void Network::Restart(NodeId node) {
  auto it = nodes_.find(node);
  assert(it != nodes_.end());
  if (it->second.up) return;
  // A node inside a failed AZ cannot come back until the AZ recovers.
  if (IsAzFailed(it->second.az)) return;
  it->second.up = true;
  AURORA_DEBUG << "node " << node << " restarted";
  if (it->second.listener != nullptr) it->second.listener->OnRestart();
}

void Network::FailAz(AzId az) {
  failed_azs_[az] = true;
  for (auto& [id, st] : nodes_) {
    if (st.az == az) Crash(id);
  }
}

void Network::RestoreAz(AzId az) {
  failed_azs_[az] = false;
  for (auto& [id, st] : nodes_) {
    if (st.az == az) Restart(id);
  }
}

bool Network::IsAzFailed(AzId az) const {
  auto it = failed_azs_.find(az);
  return it != failed_azs_.end() && it->second;
}

uint64_t Network::PairKey(NodeId a, NodeId b) const {
  NodeId lo = std::min(a, b), hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void Network::Partition(NodeId a, NodeId b, bool blocked) {
  partitions_[PairKey(a, b)] = blocked;
  if (blocked) stats_.partitions_set++;
}

size_t Network::ActivePartitions() const {
  size_t active = 0;
  for (const auto& [key, blocked] : partitions_) {
    if (blocked) active++;
  }
  return active;
}

bool Network::IsPartitioned(NodeId a, NodeId b) const {
  auto it = partitions_.find(PairKey(a, b));
  return it != partitions_.end() && it->second;
}

void Network::SetNodeSlowdown(NodeId node, double factor) {
  auto it = nodes_.find(node);
  assert(it != nodes_.end());
  it->second.slowdown = factor;
}

double Network::NodeSlowdown(NodeId node) const {
  auto it = nodes_.find(node);
  assert(it != nodes_.end());
  return it->second.slowdown;
}

SimDuration Network::SampleLatency(NodeId from, NodeId to, uint64_t bytes) {
  const auto& src = nodes_.at(from);
  const auto& dst = nodes_.at(to);
  SimDuration base;
  if (from == to) {
    return 1;  // loopback
  } else if (src.az == dst.az) {
    base = options_.intra_az.Sample(rng_);
  } else {
    base = options_.cross_az.Sample(rng_);
  }
  double lat = static_cast<double>(base) * src.slowdown * dst.slowdown;
  if (options_.bytes_per_us > 0.0) {
    lat += static_cast<double>(bytes) / options_.bytes_per_us;
  }
  // Every hop between distinct nodes takes at least 1us, whatever the
  // distribution tail or a sub-unity slowdown would give.
  return static_cast<SimDuration>(std::max(1.0, lat));
}

Network::SendPlan Network::PlanSend(NodeId from, NodeId to, uint64_t bytes) {
  stats_.messages_sent++;
  stats_.bytes_sent += bytes;
  auto src_it = nodes_.find(from);
  auto dst_it = nodes_.find(to);
  assert(src_it != nodes_.end() && dst_it != nodes_.end());
  if (!src_it->second.up || !dst_it->second.up || IsPartitioned(from, to)) {
    stats_.messages_dropped++;
    return SendPlan{};
  }
  // Links are FIFO, like a TCP connection: the replication stream (§3.3)
  // relies on in-order MTR-then-VDL delivery. The adjustment only ever
  // pushes delivery later.
  const uint64_t link = (static_cast<uint64_t>(from) << 32) | to;
  SimTime& last = link_clock_[link];
  const SimTime deliver_at =
      std::max(sim_->Now() + SampleLatency(from, to, bytes), last + 1);
  last = deliver_at;
  return SendPlan{true, deliver_at - sim_->Now(),
                  dst_it->second.incarnation};
}

bool Network::Arrives(NodeId to, uint64_t dst_incarnation, uint64_t bytes) {
  auto it = nodes_.find(to);
  if (it == nodes_.end() || !it->second.up ||
      it->second.incarnation != dst_incarnation) {
    stats_.messages_dropped++;
    return false;
  }
  stats_.messages_delivered++;
  stats_.bytes_delivered += bytes;
  return true;
}

}  // namespace aurora::sim
