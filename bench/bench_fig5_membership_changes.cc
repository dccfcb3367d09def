// Experiment F5 — Figure 5: reversible, non-blocking membership changes.
//
// "Membership changes do not block either reads or writes" and "each
// transition is reversible" (§4.1). The table runs a steady write load,
// fails a segment's node, and performs the two-step replacement while
// measuring commit latency in each phase. The Paxos-style baseline models
// the traditional stop-the-world reconfiguration: writes pause while the
// new configuration is agreed and the replacement node state-transfers.
// The bench asserts the figure's shape: it exits non-zero unless the
// epochs go 1 -> 2 (dual) -> 3 (committed), every phase commits every
// write offered to it (no write stall), and the revert reports OK.
// `--quick` prints and checks the tables but skips the microbenchmarks;
// CTest runs it that way. Every run writes BENCH_fig5_membership_changes.json
// (per-phase epoch, commits and p50/p99/max commit latency in simulated
// µs, the step-2 hydration+commit time and the revert epoch); the
// simulation is deterministic, so scripts/bench_gate.sh gates them
// exactly.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench/bench_common.h"

namespace aurora {
namespace {

struct PhaseStats {
  Histogram latency;
  uint64_t commits = 0;
};

/// Runs the figure into `json`; true when its shape holds.
bool Run(bench::BenchJson& json) {
  core::AuroraOptions options;
  options.seed = 5555;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 3;
  core::AuroraCluster cluster(options);
  if (!cluster.StartBlocking().ok()) return false;
  (void)bench::RunClosedLoopWrites(cluster, 64, "warm");
  constexpr double kRate = 400.0;
  constexpr SimDuration kPhase = 2 * kSecond;
  const auto offered = static_cast<uint64_t>(kRate * kPhase / kSecond);
  std::vector<MembershipEpoch> epochs;
  bool every_write_committed = true;

  bench::Table table(
      "Figure 5: commit latency across a two-step membership change "
      "(segment F -> G) under steady load");
  table.Columns({"phase", "epoch", "commits", "p50", "p99", "max"});

  auto run_phase = [&](const char* name, const std::string& key) {
    Histogram latency;
    const uint64_t commits =
        bench::RunOpenLoopWrites(cluster, kRate, kPhase, &latency);
    const MembershipEpoch epoch = cluster.geometry().Pg(0).epoch();
    epochs.push_back(epoch);
    every_write_committed &= commits == offered;
    table.Row({name, std::to_string(epoch), std::to_string(commits),
               bench::Us(latency.P50()), bench::Us(latency.P99()),
               bench::Us(latency.max())});
    json.Set(key + "_epoch", epoch)
        .Set(key + "_commits", commits)
        .Set(key + "_p50_us", latency.P50())
        .Set(key + "_p99_us", latency.P99())
        .Set(key + "_max_us", latency.max());
  };

  run_phase("epoch 1: healthy ABCDEF", "healthy");

  // Fail F's node; I/O continues on the 4/6 of the survivors.
  const SegmentId f = 5;
  cluster.network().Crash(cluster.NodeForSegment(f)->id());
  run_phase("F failed (no change yet)", "f_failed");

  // Step 1: add G — dual quorum, still serving.
  auto begin_report = cluster.BeginReplaceBlocking(f);
  if (!begin_report.ok()) {
    std::printf("begin failed: %s\n",
                begin_report.status().ToString().c_str());
    return false;
  }
  run_phase("epoch 2: dual quorum ABCDEF+G", "dual_quorum");

  // Step 2: commit to ABCDEG once G hydrated.
  const SimTime commit_start = cluster.sim().Now();
  Status commit_st = cluster.CommitReplaceBlocking(f);
  const SimDuration change_time = cluster.sim().Now() - commit_start;
  if (!commit_st.ok()) {
    std::printf("commit failed: %s\n", commit_st.ToString().c_str());
    return false;
  }
  run_phase("epoch 3: committed ABCDEG", "committed");
  json.Set("change_time_us", change_time);
  table.Print();
  std::printf("hydration+commit of step 2 took %s of wall-clock SIM time "
              "(I/O never paused).\n\n",
              bench::Us(change_time).c_str());

  // Baseline: stop-the-world reconfiguration. Writes pause for the
  // consensus rounds plus the full state transfer before the new member
  // serves. We charge only the state-transfer time measured above plus
  // two majority consensus rounds (~2 RTTs) — generous to the baseline.
  bench::Table baseline_table(
      "F5 baseline: write-availability gap during reconfiguration");
  baseline_table.Columns({"system", "write stall during change"});
  baseline_table.Row({"Aurora quorum-set epochs", "0 (non-blocking)"});
  baseline_table.Row(
      {"stop-the-world reconfig (consensus + state transfer)",
       bench::Us(change_time + 4 * 600)});
  baseline_table.Print();

  // Reversibility: fail another segment, begin, then revert.
  const SegmentId e = 4;
  cluster.network().Crash(cluster.NodeForSegment(e)->id());
  auto report2 = cluster.BeginReplaceBlocking(e);
  bool reverted = false;
  if (report2.ok()) {
    cluster.network().Restart(cluster.NodeForSegment(e)->id());
    cluster.RunFor(100 * kMillisecond);
    Status revert = cluster.RevertReplaceBlocking(e);
    std::printf("reversibility: E suspected, replacement begun (epoch %llu)"
                ", E returned, reverted: %s (epoch %llu)\n",
                static_cast<unsigned long long>(report2->begin_epoch),
                revert.ToString().c_str(),
                static_cast<unsigned long long>(
                    cluster.geometry().Pg(0).epoch()));
    reverted = revert.ok();
    json.Set("revert_epoch", cluster.geometry().Pg(0).epoch());
  }
  const bool epochs_hold =
      epochs == std::vector<MembershipEpoch>{1, 1, 2, 3};
  if (!epochs_hold || !every_write_committed || !reverted) {
    std::fprintf(stderr,
                 "F5: FAIL expected epochs 1 -> 2 (dual) -> 3 (committed), "
                 "all %llu offered writes committed in every phase, and an "
                 "OK revert\n",
                 static_cast<unsigned long long>(offered));
    return false;
  }
  return true;
}

}  // namespace
}  // namespace aurora

namespace {

void BM_MembershipTransitionPlan(benchmark::State& state) {
  using namespace aurora::quorum;
  std::vector<SegmentInfo> members;
  for (aurora::SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<aurora::NodeId>(100 + id),
                       static_cast<aurora::AzId>(id / 2), true});
  }
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, members);
  for (auto _ : state) {
    auto next = config.BeginReplace(5, SegmentInfo{6, 110, 2, true});
    benchmark::DoNotOptimize(next->WriteSet());
    benchmark::DoNotOptimize(next->CommitReplace(5));
  }
}
BENCHMARK(BM_MembershipTransitionPlan);

void BM_TransitionSafetyProof(benchmark::State& state) {
  using namespace aurora::quorum;
  std::vector<SegmentInfo> members;
  for (aurora::SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<aurora::NodeId>(100 + id),
                       static_cast<aurora::AzId>(id / 2), true});
  }
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, members);
  auto next = config.BeginReplace(5, SegmentInfo{6, 110, 2, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(TransitionIsSafe(config, *next));
  }
}
BENCHMARK(BM_TransitionSafetyProof);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  aurora::bench::BenchJson json("fig5_membership_changes");
  if (!aurora::Run(json) || !json.WriteFile()) return 1;
  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
