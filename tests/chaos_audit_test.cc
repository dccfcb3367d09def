// Chaos testing under the invariant auditor.
//
// Each seed generates a deterministic failure schedule (storage-node
// crashes, writer-storage partitions, scrub corruption, AZ failure, writer
// crash + recovery, and membership replacements, interleaved with
// transactional writes) and executes it through the chaos harness
// (src/core/chaos_harness.h) with the auditor attached at EVERY simulator
// event and the run captured as a trace. At the end the schedule heals,
// the cluster drains, and the harness checks (a) zero invariant violations
// across the whole run and (b) the durability contract: no key ever reads
// back OLDER state than its last acknowledged commit (§2.3/§2.4 — recovery
// never loses an acked commit).
//
// When a run DOES trip an invariant, the test does not just fail: it
// writes the captured trace next to the binary, delta-debugs the schedule
// down to a minimal reproducer (src/sim/shrink.h), and prints the
// minimized human-readable timeline — the artifact to debug, instead of a
// 30-op haystack. `tools/aurora_shrink <trace>` re-runs the same
// minimization offline.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/chaos_harness.h"
#include "src/core/cluster.h"
#include "src/core/invariant_auditor.h"
#include "src/sim/trace.h"

namespace aurora {
namespace {

core::AuroraOptions ChaosOptions(uint64_t seed) {
  core::AuroraOptions options;
  options.seed = seed;
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  // Three nodes per AZ so segment replacement always has a free host.
  options.storage_nodes_per_az = 3;
  return options;
}

TEST(ChaosAudit, RandomizedFailureSchedules) {
  constexpr uint64_t kSeeds = 50;
  constexpr int kOpsPerSeed = 30;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed) +
                 " (re-run with this seed to reproduce)");
    const core::ChaosSchedule schedule =
        core::GenerateChaosSchedule(seed, kOpsPerSeed);

    sim::Trace trace;
    core::ChaosRunOptions options;
    options.record = &trace;
    const core::ChaosRunResult result =
        core::RunChaosSchedule(schedule, options);

    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    for (const std::string& error : result.errors) {
      ADD_FAILURE() << "durability contract: " << error;
    }
    if (result.violations.empty()) continue;

    // Violation: auto-capture the trace, shrink the schedule, and print
    // the minimized timeline as the failure artifact.
    const std::string trace_path =
        "chaos_seed_" + std::to_string(seed) + ".trace.jsonl";
    const Status write_status = trace.WriteFile(trace_path);
    const std::string invariant = result.violations.front().invariant;
    std::string report = "invariant \"" + invariant + "\" violated: " +
                         result.violations.front().detail;
    if (write_status.ok()) {
      report += "\ntrace captured to " + trace_path +
                " (replay/minimize with tools/aurora_shrink)";
    }
    auto shrunk = core::ShrinkChaosViolation(schedule, invariant);
    if (shrunk.ok()) {
      report += "\nminimized " + std::to_string(shrunk->original_ops) +
                " ops -> " + std::to_string(shrunk->minimized.ops.size()) +
                " in " + std::to_string(shrunk->replays) + " replays:\n" +
                shrunk->timeline;
    } else {
      report += "\n(shrink failed: " + shrunk.status().ToString() + ")";
    }
    ADD_FAILURE() << report;
    return;
  }
}

// The captured trace of a chaos run replays bit-identically: same event
// schedule fingerprint, same consistency points. This is the same check
// the determinism test makes for the plain workload, extended to the full
// fault vocabulary via the trace subsystem.
TEST(ChaosAudit, CapturedRunReplaysBitIdentically) {
  const core::ChaosSchedule schedule = core::GenerateChaosSchedule(17, 30);
  sim::Trace trace;
  core::ChaosRunOptions record;
  record.record = &trace;
  const core::ChaosRunResult original = core::RunChaosSchedule(schedule, record);
  ASSERT_TRUE(original.status.ok()) << original.status.ToString();
  ASSERT_TRUE(trace.summary.present);

  core::ChaosRunOptions replay;
  replay.replay = &trace;
  const core::ChaosRunResult replayed = core::RunChaosSchedule(schedule, replay);
  EXPECT_FALSE(replayed.replay_diverged) << replayed.replay_divergence;
  EXPECT_EQ(replayed.fingerprint, trace.summary.fingerprint);
  EXPECT_EQ(replayed.vcl, trace.summary.vcl);
  EXPECT_EQ(replayed.vdl, trace.summary.vdl);
  EXPECT_EQ(replayed.executed_events, trace.summary.executed_events);
  EXPECT_EQ(replayed.end_time, trace.summary.end_time);
}

// A deliberately broken invariant must be caught, with a seed-bearing
// snapshot for reproduction. This proves the auditor has teeth — a chaos
// suite whose oracle cannot fail detects nothing.
TEST(ChaosAudit, BrokenInvariantIsCaughtWithSnapshot) {
  core::AuroraCluster cluster(ChaosOptions(4242));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cluster.PutBlocking("k" + std::to_string(i), "v").ok());
  }
  core::InvariantAuditor auditor(&cluster);
  auditor.CheckNow();
  ASSERT_TRUE(auditor.ok()) << auditor.Report();

  // Force VDL past VCL through the test-only hook.
  cluster.writer()->driver()->tracker().CorruptVdlForTest(
      cluster.writer()->vcl() + 1000);
  auditor.CheckNow();
  ASSERT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.violations().front().invariant, "vdl-le-vcl");
  const std::string& snapshot = auditor.violations().front().snapshot;
  EXPECT_NE(snapshot.find("\"seed\": 4242"), std::string::npos) << snapshot;
  EXPECT_NE(snapshot.find("\"writer\""), std::string::npos);
  EXPECT_NE(auditor.Report().find("vdl-le-vcl"), std::string::npos);
}

// The attached auditor observes the simulation without perturbing it:
// the same seed with and without an auditor executes identically.
TEST(ChaosAudit, AuditorDoesNotPerturbExecution) {
  auto fingerprint = [](bool with_auditor) {
    core::AuroraCluster cluster(ChaosOptions(77));
    EXPECT_TRUE(cluster.StartBlocking().ok());
    std::unique_ptr<core::InvariantAuditor> auditor;
    if (with_auditor) {
      auditor = std::make_unique<core::InvariantAuditor>(&cluster);
      auditor->Attach(1);
    }
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(
          cluster.PutBlocking("k" + std::to_string(i % 7), "v").ok());
    }
    cluster.RunFor(200 * kMillisecond);
    return std::make_pair(cluster.sim().Now(),
                          cluster.sim().ScheduleFingerprint());
  };
  EXPECT_EQ(fingerprint(false), fingerprint(true));
}

// Metrics smoke: the chaos layers feed the cluster's MetricsJson() (fan-out,
// commits, network), whose counts agree with the components' own stats,
// while the auditor keeps its own check count.
TEST(ChaosAudit, MetricsJsonReportsClusterCounts) {
  core::AuroraCluster cluster(ChaosOptions(99));
  ASSERT_TRUE(cluster.StartBlocking().ok());
  core::InvariantAuditor auditor(&cluster);
  auditor.Attach(64);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("m" + std::to_string(i), "v").ok());
  }
  cluster.RunFor(500 * kMillisecond);
  auditor.CheckNow();
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  EXPECT_GT(auditor.checks_run(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
  auditor.Detach();

  const std::string json = cluster.MetricsJson();
  auto* writer = cluster.writer();
  const uint64_t fanout = writer->driver()->stats().records_sent;
  EXPECT_GT(fanout, 0u);
  EXPECT_NE(json.find("\"driver.fanout_records\": " + std::to_string(fanout) +
                      ","),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"engine.commits_acked\": " +
                      std::to_string(writer->stats().commits_acked) + ","),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"net.messages_sent\": " +
                      std::to_string(cluster.network().stats().messages_sent) +
                      ","),
            std::string::npos)
      << json;
  EXPECT_GT(writer->commit_latency().count(), 0u);
  EXPECT_NE(json.find("\"engine.commit_wait_us\": {\"count\": " +
                      std::to_string(writer->commit_latency().count()) + ","),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace aurora
