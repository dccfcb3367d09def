// Fleet operations tour: the §4 toolbox beyond failure repair.
//
//   $ ./fleet_operations
//
// Walks through: the full/tail cost model (§4.2), heat management (move a
// hot segment with zero downtime), volume growth (geometry epochs),
// extended-AZ-loss degradation to a 3/4 quorum and back (§4.1), and a
// point-in-time restore from the continuous redo archive (Figure 2).

#include <cstdio>

#include "src/core/cluster.h"

using namespace aurora;

int main() {
  core::AuroraOptions options;
  options.seed = 31337;
  options.blocks_per_pg = 1 << 16;
  options.quorum_model = quorum::QuorumModel::kFullTail;
  options.storage_nodes_per_az = 3;
  options.storage_node.backup_interval = 20 * kMillisecond;

  core::AuroraCluster cluster(options);
  if (!cluster.StartBlocking().ok()) return 1;
  std::printf("1) full/tail volume (§4.2):\n   %s\n",
              cluster.geometry().Pg(0).ToString().c_str());

  for (int i = 0; i < 200; ++i) {
    (void)cluster.PutBlocking("row" + std::to_string(i),
                              std::string(128, 'd'));
  }
  cluster.RunFor(kSecond);
  uint64_t full_bytes = 0, tail_bytes = 0, one_copy = 0;
  for (const auto& node : cluster.storage_nodes()) {
    for (const auto& [id, segment] : node->segments()) {
      if (segment->is_full()) {
        full_bytes += segment->TotalVersionBytes();
        one_copy = std::max(one_copy, segment->TotalVersionBytes());
      } else {
        tail_bytes += segment->TotalVersionBytes();
      }
    }
  }
  std::printf("   block bytes: full segments %llu, tail segments %llu "
              "(amplification %.1fx, not 6x)\n\n",
              static_cast<unsigned long long>(full_bytes),
              static_cast<unsigned long long>(tail_bytes),
              one_copy ? static_cast<double>(full_bytes + tail_bytes) /
                             one_copy
                       : 0.0);

  // ---- Heat management ----------------------------------------------------
  std::printf("2) heat management: node hosting segment 0 is hot; move it\n");
  auto moved = cluster.ReplaceSegmentBlocking(0);
  std::printf("   moved -> segment %u (epochs %llu -> %llu), zero write "
              "stall\n\n",
              moved.ok() ? moved->new_segment : 0,
              static_cast<unsigned long long>(
                  moved.ok() ? moved->begin_epoch : 0),
              static_cast<unsigned long long>(
                  moved.ok() ? moved->final_epoch : 0));

  // ---- Volume growth ------------------------------------------------------
  std::printf("3) volume growth: geometry epoch %llu",
              static_cast<unsigned long long>(
                  cluster.geometry().geometry_epoch()));
  (void)cluster.GrowVolumeBlocking();
  std::printf(" -> %llu (now %zu protection groups)\n\n",
              static_cast<unsigned long long>(
                  cluster.geometry().geometry_epoch()),
              cluster.geometry().PgCount());

  // ---- Archive + PITR -----------------------------------------------------
  cluster.RunFor(kSecond);
  const Lsn restore_point = cluster.writer()->vdl();
  std::printf("4) archive horizon %llu; taking restore point %llu\n",
              static_cast<unsigned long long>(cluster.ArchiveHorizon()),
              static_cast<unsigned long long>(restore_point));
  (void)cluster.PutBlocking("oops", "fat-fingered DROP TABLE");
  cluster.RunFor(200 * kMillisecond);
  Status restored = cluster.RestoreToPointBlocking(restore_point);
  std::printf("   restore: %s; 'oops' now: %s; 'row7' still: %s\n\n",
              restored.ToString().c_str(),
              cluster.GetBlocking("oops").status().ToString().c_str(),
              cluster.GetBlocking("row7").ok() ? "present" : "LOST");

  // ---- Extended AZ loss ---------------------------------------------------
  std::printf("5) extended AZ loss: AZ 2 down for the long haul\n");
  cluster.network().FailAz(2);
  Status shrink = cluster.ShrinkAfterAzLossBlocking(2);
  std::printf("   shrink to 3/4: %s\n   %s\n", shrink.ToString().c_str(),
              cluster.geometry().Pg(0).ToString().c_str());
  (void)cluster.PutBlocking("resilient", "still-writing");
  std::printf("   writes flow on 3/4: %s\n",
              cluster.GetBlocking("resilient").ok() ? "yes" : "no");
  cluster.network().RestoreAz(2);
  cluster.RunFor(200 * kMillisecond);
  Status expand = cluster.ExpandToSixBlocking(2);
  std::printf("   AZ back; expand to 4/6: %s (epoch %llu)\n",
              expand.ToString().c_str(),
              static_cast<unsigned long long>(
                  cluster.geometry().Pg(0).epoch()));
  std::printf("\nall five operations used only quorum writes + epochs — "
              "no consensus protocol ran.\n");
  return 0;
}
