// Fleet placement service for the multi-tenant storage fleet
// (DESIGN.md §11).
//
// One segment fleet hosts protection groups from MANY volumes. The
// placement service decides which servers host which segments, under two
// anti-affinity rules:
//
//   1. AZ spread: each PG places an equal share of its members in every
//      registered AZ (2 per AZ for the 6-way quorum), so a whole-AZ loss
//      removes at most that share (§2.1's "AZ+1" tolerance).
//   2. Server spread: no two members of the same PG ever share a server —
//      a single server loss costs a PG at most one segment.
//
// Within those rules placement is least-loaded-first: candidates sort by
// (hosted segment count, node id). The node-id tie-break makes every
// decision a pure function of fleet state — no RNG, no clock — so
// placement can never perturb the deterministic event schedule, and
// re-running a seed re-derives the identical layout.
//
// The service deliberately holds NO load state of its own: the cluster
// injects a load probe (`SetLoadSource`) and a liveness probe
// (`SetLiveness`) that read fleet ground truth at decision time. That
// removes a whole class of double-bookkeeping bugs (repair adds a
// segment, placement forgets to hear about it) at the price of the
// probes being cheap, which they are in-simulation.
//
// Every fresh member a membership change adds — a repair's or a manual
// replacement, or AZ expand's two — gets its host from `PickReplacement`
// (through AuroraCluster::PlaceFreshMembers); it honors the same two
// rules.

#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/quorum/membership.h"

namespace aurora::core {

class PlacementService {
 public:
  /// Returns hosted-segment count for a server (fleet ground truth).
  using LoadFn = std::function<size_t(NodeId)>;
  /// Returns whether a server is currently up.
  using LivenessFn = std::function<bool(NodeId)>;

  /// Adds a segment server to the placement universe.
  void RegisterServer(NodeId node, AzId az);

  /// Injects the fleet ground-truth probes. Until set, load defaults to 0
  /// for every server and every server counts as up.
  void SetLoadSource(LoadFn load);
  void SetLiveness(LivenessFn is_up);

  /// Registered servers in `az`, ascending by node id.
  const std::vector<NodeId>& ServersIn(AzId az) const;

  /// Places one protection group for `volume`: `kCopiesPerAz` members in
  /// each registered AZ, each on a distinct least-loaded live server
  /// (rule 2 checked fleet-wide, not just per AZ). `alloc_id` must return
  /// fresh fleet-unique segment ids; it is called once per member, in
  /// slot order. Under kFullTail the first member per AZ is full and the
  /// second is a tail segment (the 3-full/3-tail shape).
  /// Fails if any AZ lacks `kCopiesPerAz` distinct live servers.
  Result<std::vector<quorum::SegmentInfo>> PlacePg(
      VolumeId volume, quorum::QuorumModel model,
      const std::function<SegmentId()>& alloc_id) const;

  /// Host for a fresh member of `config` in `az`: the least-loaded live
  /// server in that AZ hosting no member of the PG and not in `taken`
  /// (hosts already chosen for the same change). Falls back to a down
  /// such server; fails only if every server in the AZ is excluded.
  Result<NodeId> PickReplacement(const quorum::PgConfig& config, AzId az,
                                 const std::set<NodeId>& taken = {}) const;

 private:
  size_t LoadOf(NodeId node) const;
  bool IsUp(NodeId node) const;
  /// Least-loaded server in `az` excluding `exclude`; prefers live
  /// servers, falls back to down ones unless `require_up`.
  NodeId PickLeastLoaded(AzId az, const std::set<NodeId>& exclude,
                         bool require_up) const;

  LoadFn load_;
  LivenessFn is_up_;
  std::map<NodeId, AzId> servers_;
  std::map<AzId, std::vector<NodeId>> by_az_;
};

}  // namespace aurora::core
