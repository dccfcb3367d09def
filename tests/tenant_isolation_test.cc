// Tenant isolation on the shared storage fleet (DESIGN.md §11).
//
// The multi-tenant claim is an ISOLATION property, not just a fairness
// number: a fault confined to tenant A — its writer crashing, its queues
// backing up — must never stall tenant B's commits, and no schedule of
// shared-fleet faults may drive any tenant's volume into a
// protocol-illegal state. Three angles:
//
//  1. Writer-crash confinement: tenant A's writer dies mid-stream;
//     tenant B's commit pipeline keeps acking throughout the outage
//     (checked DURING the outage, not after recovery).
//  2. Noisy-neighbor confinement under the fair scheduler: tenant A
//     floods the shared disks; tenant B's blocking commits all land.
//  3. A 20-seed chaos sweep over multi-tenant clusters — random storage
//     node crash/restart cycles under concurrent per-tenant load with
//     the invariant auditor attached at event granularity. Every seed
//     must end with zero violations and every tenant making progress.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/core/invariant_auditor.h"
#include "src/engine/db_instance.h"

namespace aurora {
namespace {

core::AuroraOptions MultiTenantOptions(uint64_t seed, size_t volumes) {
  core::AuroraOptions options;
  options.seed = seed;
  options.volumes = volumes;
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 3;
  return options;
}

/// Closed-loop async writer against one volume: one autocommit Put in
/// flight at a time, counting acked commits. Keeps issuing until stopped;
/// a failed or timed-out Put just re-issues (the writer may be down).
struct TenantLoad {
  core::AuroraCluster* cluster = nullptr;
  VolumeId volume = 0;
  uint64_t acked = 0;
  uint64_t issued = 0;
  bool stopped = false;

  void Pump() {
    if (stopped) return;
    engine::DbInstance* writer = cluster->writer(volume);
    if (writer == nullptr || !cluster->network().IsUp(writer->id())) {
      // Writer down: retry later rather than crashing into a dead actor.
      cluster->sim().Schedule(1 * kMillisecond, [this] { Pump(); });
      return;
    }
    const TxnId txn = writer->Begin();
    const std::string key =
        "t" + std::to_string(volume) + "-k" + std::to_string(issued % 128);
    ++issued;
    writer->Put(txn, key, "v", [this, writer, txn](Status st) {
      if (!st.ok()) {
        cluster->sim().Schedule(1 * kMillisecond, [this] { Pump(); });
        return;
      }
      writer->Commit(txn, [this](Status commit_st) {
        if (commit_st.ok()) ++acked;
        cluster->sim().Schedule(200, [this] { Pump(); });
      });
    });
  }
};

TEST(TenantIsolation, WriterCrashInTenantANeverStallsTenantB) {
  core::AuroraCluster cluster(MultiTenantOptions(6001, /*volumes=*/2));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  core::InvariantAuditor auditor(&cluster);
  auditor.Attach(/*every_n_events=*/16);

  TenantLoad load_a{&cluster, 0};
  TenantLoad load_b{&cluster, 1};
  load_a.Pump();
  load_b.Pump();
  cluster.RunFor(200 * kMillisecond);
  const uint64_t a_before = load_a.acked;
  const uint64_t b_before = load_b.acked;
  ASSERT_GT(a_before, 0u);
  ASSERT_GT(b_before, 0u);

  // Tenant A's writer crashes and STAYS down. The fault is confined to
  // volume 0: same fleet, same disks, same metadata service — tenant B
  // must keep committing at full clip during the outage.
  cluster.network().Crash(cluster.writer(0)->id());
  cluster.RunFor(500 * kMillisecond);

  EXPECT_EQ(load_a.acked, a_before) << "tenant A acked through a crash?";
  const uint64_t b_during = load_b.acked - b_before;
  EXPECT_GT(b_during, 100u)
      << "tenant B stalled while tenant A's writer was down";
  EXPECT_TRUE(auditor.ok()) << auditor.Report();

  load_a.stopped = true;
  load_b.stopped = true;
  cluster.RunFor(10 * kMillisecond);
  auditor.Detach();
}

TEST(TenantIsolation, NoisyTenantNeverBlocksQuietCommits) {
  core::AuroraCluster cluster(MultiTenantOptions(6002, /*volumes=*/2));
  ASSERT_TRUE(cluster.StartBlocking().ok());

  // Tenant 0 floods: sixteen concurrent closed loops with zero think
  // time. Tenant 1 issues 50 blocking commits; every one must land
  // despite the backlog (DRR guarantees bounded wait, not just
  // eventual service — the bench asserts the latency bound, this test
  // asserts liveness through the blocking path's timeout).
  std::vector<std::unique_ptr<TenantLoad>> noisy;
  for (int i = 0; i < 16; ++i) {
    auto load = std::make_unique<TenantLoad>();
    load->cluster = &cluster;
    load->volume = 0;
    load->Pump();
    noisy.push_back(std::move(load));
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cluster.PutBlocking(1, "quiet" + std::to_string(i), "v").ok())
        << "quiet tenant commit " << i << " failed under noisy load";
  }
  for (auto& load : noisy) load->stopped = true;
  cluster.RunFor(10 * kMillisecond);
  EXPECT_GT(noisy.front()->acked, 0u);
}

TEST(TenantIsolation, ChaosSweepTwentySeedsAuditorGreen) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    core::AuroraCluster cluster(MultiTenantOptions(7000 + seed,
                                                   /*volumes=*/3));
    ASSERT_TRUE(cluster.StartBlocking().ok()) << "seed " << seed;
    core::InvariantAuditor auditor(&cluster);
    auditor.Attach(/*every_n_events=*/8);

    std::vector<std::unique_ptr<TenantLoad>> loads;
    for (VolumeId volume = 0; volume < 3; ++volume) {
      auto load = std::make_unique<TenantLoad>();
      load->cluster = &cluster;
      load->volume = volume;
      load->Pump();
      loads.push_back(std::move(load));
    }

    // Random crash/restart churn on the shared servers: up to two nodes
    // down at once (a 4/6 write quorum survives two member losses), each
    // outage 20-80ms, for ~1.2s of simulated time.
    Rng rng(seed * 977);
    const std::vector<NodeId> servers = cluster.StorageNodeIds();
    for (int round = 0; round < 12; ++round) {
      const NodeId victim_a = servers[rng.Next() % servers.size()];
      NodeId victim_b = servers[rng.Next() % servers.size()];
      if (rng.Next() % 2 == 0) victim_b = victim_a;  // single-fault rounds
      cluster.network().Crash(victim_a);
      if (victim_b != victim_a) cluster.network().Crash(victim_b);
      cluster.RunFor(20 * kMillisecond + rng.Next() % (60 * kMillisecond));
      cluster.network().Restart(victim_a);
      if (victim_b != victim_a) cluster.network().Restart(victim_b);
      cluster.RunFor(20 * kMillisecond);
    }
    cluster.RunFor(200 * kMillisecond);  // settle: queues drain, gossip heals

    EXPECT_TRUE(auditor.ok()) << "seed " << seed << "\n" << auditor.Report();
    for (VolumeId volume = 0; volume < 3; ++volume) {
      EXPECT_GT(loads[volume]->acked, 0u)
          << "seed " << seed << ": tenant " << volume << " made no progress";
    }
    for (auto& load : loads) load->stopped = true;
    cluster.RunFor(10 * kMillisecond);
    auditor.Detach();
  }
}

}  // namespace
}  // namespace aurora
