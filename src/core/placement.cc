#include "src/core/placement.h"

#include <algorithm>

#include "src/quorum/geometry.h"

namespace aurora::core {

void PlacementService::RegisterServer(NodeId node, AzId az) {
  if (servers_.contains(node)) return;
  servers_[node] = az;
  auto& list = by_az_[az];
  list.insert(std::upper_bound(list.begin(), list.end(), node), node);
}

void PlacementService::SetLoadSource(LoadFn load) { load_ = std::move(load); }

void PlacementService::SetLiveness(LivenessFn is_up) {
  is_up_ = std::move(is_up);
}

const std::vector<NodeId>& PlacementService::ServersIn(AzId az) const {
  static const std::vector<NodeId> kEmpty;
  auto it = by_az_.find(az);
  return it == by_az_.end() ? kEmpty : it->second;
}

size_t PlacementService::LoadOf(NodeId node) const {
  return load_ ? load_(node) : 0;
}

bool PlacementService::IsUp(NodeId node) const {
  return is_up_ ? is_up_(node) : true;
}

NodeId PlacementService::PickLeastLoaded(AzId az,
                                         const std::set<NodeId>& exclude,
                                         bool require_up) const {
  // Candidates sort by (load, node id): deterministic, no RNG, so the
  // same fleet state always yields the same placement.
  NodeId best = kInvalidNode;
  size_t best_load = 0;
  NodeId best_down = kInvalidNode;
  size_t best_down_load = 0;
  for (NodeId node : ServersIn(az)) {
    if (exclude.contains(node)) continue;
    size_t load = LoadOf(node);
    if (IsUp(node)) {
      if (best == kInvalidNode || load < best_load) {
        best = node;
        best_load = load;
      }
    } else if (best_down == kInvalidNode || load < best_down_load) {
      best_down = node;
      best_down_load = load;
    }
  }
  if (best != kInvalidNode) return best;
  return require_up ? kInvalidNode : best_down;
}

Result<std::vector<quorum::SegmentInfo>> PlacementService::PlacePg(
    VolumeId volume, quorum::QuorumModel model,
    const std::function<SegmentId()>& alloc_id) const {
  std::vector<quorum::SegmentInfo> members;
  std::set<NodeId> used;  // rule 2: fleet-wide server anti-affinity
  for (const auto& [az, _] : by_az_) {
    for (size_t copy = 0; copy < quorum::kCopiesPerAz; ++copy) {
      NodeId host = PickLeastLoaded(az, used, /*require_up=*/true);
      if (host == kInvalidNode) {
        return Status::Unavailable(
            "placement: AZ " + std::to_string(az) + " lacks " +
            std::to_string(quorum::kCopiesPerAz) +
            " distinct live servers");
      }
      used.insert(host);
      quorum::SegmentInfo info;
      info.id = alloc_id();
      info.node = host;
      info.az = az;
      // Under full/tail, the first copy per AZ materializes blocks and
      // the second is redo-only: one full copy per AZ, so an AZ loss
      // cannot take every full segment (§4.2).
      info.is_full =
          model == quorum::QuorumModel::kFullTail ? (copy == 0) : true;
      info.volume = volume;
      members.push_back(info);
    }
  }
  return members;
}

Result<NodeId> PlacementService::PickReplacement(
    const quorum::PgConfig& config, AzId az,
    const std::set<NodeId>& taken) const {
  std::set<NodeId> exclude = taken;
  for (const auto& member : config.AllMembers()) exclude.insert(member.node);
  NodeId host = PickLeastLoaded(az, exclude, /*require_up=*/false);
  if (host == kInvalidNode) {
    return Status::Unavailable(
        "placement: no anti-affine replacement host in AZ " +
        std::to_string(az));
  }
  return host;
}

}  // namespace aurora::core
