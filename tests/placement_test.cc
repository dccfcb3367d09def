// Placement service: anti-affinity, deterministic least-loaded choice,
// and replacement candidates.
//
// The placement service (DESIGN.md §11) is the only component that
// decides WHERE segments live on a multi-tenant fleet. It is stateless
// and deterministic — fleet load and liveness are injected probes, ties
// break on node id — so these tests construct fleets directly and assert
// on exact layouts, then cross-check the integrated path through
// single- and multi-volume AuroraCluster bootstraps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/placement.h"
#include "src/quorum/membership.h"

namespace aurora {
namespace {

/// A 3-AZ fleet with `per_az` servers per AZ, node ids 1..3*per_az
/// (AZ-major: AZ 0 gets the lowest ids).
core::PlacementService MakeFleet(size_t per_az) {
  core::PlacementService placement;
  NodeId next = 1;
  for (AzId az = 0; az < 3; ++az) {
    for (size_t i = 0; i < per_az; ++i) {
      placement.RegisterServer(next++, az);
    }
  }
  return placement;
}

quorum::PgConfig PlaceOne(const core::PlacementService& placement,
                          VolumeId volume, ProtectionGroupId pg,
                          SegmentId* next_segment) {
  auto placed = placement.PlacePg(volume, quorum::QuorumModel::kUniform46,
                                  [&]() { return (*next_segment)++; });
  EXPECT_TRUE(placed.ok()) << placed.status().ToString();
  return quorum::PgConfig::Create(pg, quorum::QuorumModel::kUniform46,
                                  *placed);
}

TEST(Placement, SpreadsTwoCopiesPerAzOnDistinctServers) {
  core::PlacementService placement = MakeFleet(/*per_az=*/3);
  SegmentId next_segment = 100;
  auto placed = placement.PlacePg(/*volume=*/7,
                                  quorum::QuorumModel::kUniform46,
                                  [&]() { return next_segment++; });
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  ASSERT_EQ(placed->size(), 6u);

  std::map<AzId, std::set<NodeId>> hosts_by_az;
  for (const auto& info : *placed) {
    EXPECT_EQ(info.volume, 7u);  // tenant tag rides on every copy
    hosts_by_az[info.az].insert(info.node);
  }
  // AZ anti-affinity: exactly two copies in each of the three AZs, and
  // server anti-affinity: the two copies in one AZ on distinct servers.
  ASSERT_EQ(hosts_by_az.size(), 3u);
  for (const auto& [az, hosts] : hosts_by_az) {
    EXPECT_EQ(hosts.size(), 2u) << "az " << az;
  }
}

TEST(Placement, LeastLoadedFirstWithNodeIdTieBreak) {
  core::PlacementService placement = MakeFleet(/*per_az=*/3);
  std::map<NodeId, size_t> load;
  placement.SetLoadSource([&](NodeId id) { return load[id]; });

  // AZ 0 is servers {1,2,3}. Load server 1 heavily: the two AZ-0 copies
  // must land on 2 and 3 (ties elsewhere break toward the lower id).
  load[1] = 10;
  SegmentId next_segment = 1;
  auto placed = placement.PlacePg(0, quorum::QuorumModel::kUniform46,
                                  [&]() { return next_segment++; });
  ASSERT_TRUE(placed.ok());
  std::set<NodeId> az0_hosts;
  for (const auto& info : *placed) {
    if (info.az == 0) az0_hosts.insert(info.node);
  }
  EXPECT_EQ(az0_hosts, (std::set<NodeId>{2, 3}));
}

TEST(Placement, RefusesAzWithoutDistinctLiveServers) {
  // Two servers per AZ but one AZ-0 server is down: a 2-copies-per-AZ
  // placement cannot satisfy server anti-affinity there and must fail
  // loudly rather than stack both copies on one host.
  core::PlacementService placement = MakeFleet(/*per_az=*/2);
  placement.SetLiveness([](NodeId id) { return id != 1; });
  SegmentId next_segment = 1;
  auto placed = placement.PlacePg(0, quorum::QuorumModel::kUniform46,
                                  [&]() { return next_segment++; });
  EXPECT_FALSE(placed.ok());
}

TEST(Placement, ReplacementExcludesCurrentMembersAndPrefersIdleServers) {
  core::PlacementService placement = MakeFleet(/*per_az=*/3);
  SegmentId next_segment = 1;
  quorum::PgConfig config = PlaceOne(placement, 0, 0, &next_segment);

  // AZ 0 = servers {1,2,3}; the PG occupies two of them. A replacement
  // in AZ 0 must land on the one server the PG does not already use.
  std::set<NodeId> used;
  for (const auto& member : config.AllMembers()) {
    if (member.az == 0) used.insert(member.node);
  }
  ASSERT_EQ(used.size(), 2u);
  auto replacement = placement.PickReplacement(config, /*az=*/0);
  ASSERT_TRUE(replacement.ok()) << replacement.status().ToString();
  EXPECT_FALSE(used.contains(*replacement));
  EXPECT_LE(*replacement, 3u);  // still an AZ-0 server

  // With four AZ-0 servers, two are free of the PG. A down candidate
  // loses to a live one even with the lower id, the less-loaded of two
  // live ones wins unless the same change already took it, and a down
  // server is the fallback only when no live candidate is left.
  core::PlacementService wide = MakeFleet(/*per_az=*/4);
  next_segment = 1;
  const quorum::PgConfig spread = PlaceOne(wide, 0, 0, &next_segment);
  std::vector<NodeId> free_az0;
  for (NodeId node : wide.ServersIn(0)) {
    bool member = false;
    for (const auto& m : spread.AllMembers()) member |= m.node == node;
    if (!member) free_az0.push_back(node);
  }
  ASSERT_EQ(free_az0.size(), 2u);
  const NodeId low = free_az0[0];
  const NodeId high = free_az0[1];
  std::set<NodeId> down = {low};
  std::map<NodeId, size_t> load;
  wide.SetLiveness([&](NodeId id) { return !down.contains(id); });
  wide.SetLoadSource([&](NodeId id) { return load[id]; });
  EXPECT_EQ(*wide.PickReplacement(spread, 0), high) << "live server wins";
  down.clear();
  load[low] = 5;
  EXPECT_EQ(*wide.PickReplacement(spread, 0), high) << "idle server wins";
  EXPECT_EQ(*wide.PickReplacement(spread, 0, {high}), low)
      << "a host already taken by the same change is excluded";
  down = {low, high};
  EXPECT_EQ(*wide.PickReplacement(spread, 0), high)
      << "least-loaded down server as the fallback";
}

// Every cluster lays out its segments through the placement service —
// the single-volume cluster included — so the same bootstrap checks run
// over one volume and over a three-volume shared fleet.
class PlacementCluster : public ::testing::TestWithParam<size_t> {};

TEST_P(PlacementCluster, MultiVolumeClusterBootstrapsUnderAntiAffinity) {
  const size_t volumes = GetParam();
  core::AuroraOptions options;
  options.seed = 4242;
  options.volumes = volumes;
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 3;
  core::AuroraCluster cluster(options);
  ASSERT_NE(cluster.placement(), nullptr);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_EQ(cluster.VolumeCount(), volumes);

  // Every volume's every PG: six members, 2 per AZ, distinct servers
  // within an AZ, and the volume tag on each member.
  size_t pgs_seen = 0;
  std::map<NodeId, size_t> segments_per_server;
  cluster.ForEachPgConfig([&](VolumeId volume, const quorum::PgConfig& pg) {
    ++pgs_seen;
    std::map<AzId, std::set<NodeId>> hosts_by_az;
    for (const auto& member : pg.AllMembers()) {
      EXPECT_EQ(member.volume, volume);
      hosts_by_az[member.az].insert(member.node);
      segments_per_server[member.node]++;
    }
    ASSERT_EQ(hosts_by_az.size(), 3u);
    for (const auto& [az, hosts] : hosts_by_az) {
      EXPECT_EQ(hosts.size(), 2u)
          << "volume " << volume << " pg " << pg.pg() << " az " << az;
    }
  });
  EXPECT_EQ(pgs_seen, volumes * 2);

  // Least-loaded placement balances volumes across the servers: hosted
  // counts differ by at most one segment. One volume's PGs share servers
  // (its stores are created after the whole volume is placed), so a
  // single volume occupies two servers per AZ and three volumes cover all
  // nine.
  std::map<NodeId, size_t> before;
  for (const auto& node : cluster.storage_nodes()) {
    before[node->id()] = node->segments().size();
  }
  size_t lo = SIZE_MAX, hi = 0;
  for (const auto& [node, count] : segments_per_server) {
    EXPECT_EQ(before.at(node), count) << "server " << node;
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  EXPECT_LE(hi - lo, 1u);
  EXPECT_EQ(segments_per_server.size(), volumes == 1 ? 6u : 9u);

  // Growing volume 0 places the new PG through the service: in each AZ
  // its two hosts are the least-loaded servers before the grow.
  const size_t pgs_before = cluster.geometry(0).PgCount();
  ASSERT_TRUE(cluster.GrowVolumeBlocking(0).ok());
  ASSERT_EQ(cluster.geometry(0).PgCount(), pgs_before + 1);
  std::map<AzId, std::set<NodeId>> grown_hosts;
  for (const auto& member : cluster.geometry(0).pgs().back().AllMembers()) {
    EXPECT_EQ(member.volume, 0u);
    grown_hosts[member.az].insert(member.node);
  }
  ASSERT_EQ(grown_hosts.size(), 3u);
  for (const auto& node : cluster.storage_nodes()) {
    const auto& hosts = grown_hosts[node->az()];
    ASSERT_EQ(hosts.size(), 2u) << "az " << node->az();
    if (hosts.contains(node->id())) continue;
    for (NodeId host : hosts) {
      EXPECT_LE(before.at(host), before.at(node->id()))
          << "grow skipped less-loaded server " << node->id();
    }
  }

  // Each tenant writes through its own volume without interference.
  for (VolumeId volume = 0; volume < volumes; ++volume) {
    const std::string key = "t" + std::to_string(volume);
    ASSERT_TRUE(cluster.PutBlocking(volume, key, "v").ok());
    auto got = cluster.GetBlocking(volume, key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "v");
  }
  // Tenant keyspaces are disjoint: volume 1 never sees volume 0's key.
  if (volumes > 1) {
    EXPECT_FALSE(cluster.GetBlocking(1, "t0").ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Volumes, PlacementCluster,
                         ::testing::Values(size_t{1}, size_t{3}));

}  // namespace
}  // namespace aurora
