// Determinism tests: identical seeds must yield identical executions —
// the property the whole simulation substrate (and every reproducible
// benchmark number in EXPERIMENTS.md) rests on.

#include <gtest/gtest.h>

#include "src/core/cluster.h"

namespace aurora {
namespace {

struct RunFingerprint {
  Lsn vcl = 0;
  Lsn vdl = 0;
  VolumeEpoch epoch = 0;
  uint64_t commits = 0;
  SimTime end_time = 0;
  uint64_t net_bytes = 0;
  uint64_t fleet_received = 0;
  uint64_t executed_events = 0;
  uint64_t schedule_fingerprint = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint RunScenario(uint64_t seed) {
  core::AuroraOptions options;
  options.seed = seed;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 3;
  core::AuroraCluster cluster(options);
  EXPECT_TRUE(cluster.StartBlocking().ok());
  // A scenario touching most subsystems: writes, a node crash, a
  // membership change, a writer crash + recovery, more writes.
  for (int i = 0; i < 40; ++i) {
    (void)cluster.PutBlocking("k" + std::to_string(i % 13),
                              "v" + std::to_string(i));
  }
  cluster.network().Crash(cluster.NodeForSegment(5)->id());
  (void)cluster.ReplaceSegmentBlocking(5);
  cluster.CrashWriter();
  cluster.RunFor(10 * kMillisecond);
  (void)cluster.RecoverWriterBlocking();
  for (int i = 0; i < 20; ++i) {
    (void)cluster.PutBlocking("post" + std::to_string(i), "v");
  }
  cluster.RunFor(500 * kMillisecond);

  RunFingerprint fp;
  fp.vcl = cluster.writer()->vcl();
  fp.vdl = cluster.writer()->vdl();
  fp.epoch = cluster.writer()->volume_epoch();
  fp.commits = cluster.writer()->stats().commits_acked;
  fp.end_time = cluster.sim().Now();
  fp.net_bytes = cluster.network().stats().bytes_delivered;
  fp.executed_events = cluster.sim().ExecutedEvents();
  fp.schedule_fingerprint = cluster.sim().ScheduleFingerprint();
  for (const auto& node : cluster.storage_nodes()) {
    for (const auto& [id, segment] : node->segments()) {
      fp.fleet_received += segment->stats().records_received;
    }
  }
  return fp;
}

TEST(Determinism, IdenticalSeedsIdenticalExecutions) {
  const RunFingerprint a = RunScenario(12345);
  const RunFingerprint b = RunScenario(12345);
  EXPECT_EQ(a, b) << "same seed must replay bit-identically";
  EXPECT_GT(a.commits, 0u);
  EXPECT_GT(a.net_bytes, 0u);
}

TEST(Determinism, MatchesPreZeroCopyGoldenFingerprint) {
  // Golden values of this scenario at seed 12345. Representation changes
  // (the zero-copy hot path, the slab event engine) must keep consistency
  // points, commit counts, the event schedule and wire traffic
  // bit-identical. They were re-pinned once, deliberately, when the
  // membership change's SCL probe and config install moved onto the
  // simulated wire (their replies had skipped the return hop): end time,
  // delivered bytes, executed events and the schedule fingerprint moved;
  // VCL, VDL, epoch and commits did not (DESIGN.md §6d). An intentional
  // protocol change that shifts them re-captures the constants and
  // records old → new there.
  const RunFingerprint fp = RunScenario(12345);
  EXPECT_EQ(fp.vcl, 1073742055u);
  EXPECT_EQ(fp.vdl, 1073742055u);
  EXPECT_EQ(fp.epoch, 2u);
  EXPECT_EQ(fp.commits, 60u);
  EXPECT_EQ(fp.end_time, 693559);
  EXPECT_EQ(fp.net_bytes, 287477u);
  EXPECT_EQ(fp.executed_events, 3032u);
  // Schedule fingerprint over every executed (time, label) pair: the
  // engine must not reorder, add or drop a single event.
  EXPECT_EQ(fp.schedule_fingerprint, 16999347296676194758ULL);
}

TEST(Determinism, DifferentSeedsDivergeInTiming) {
  const RunFingerprint a = RunScenario(111);
  const RunFingerprint b = RunScenario(222);
  // Logical outcomes match (same workload) but timing/traffic differ.
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_NE(a.end_time, b.end_time);
}

}  // namespace
}  // namespace aurora
