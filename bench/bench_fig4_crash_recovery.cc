// Experiments F4 + C7 — Figure 4: log truncation at crash recovery, and
// the §2.4 claim that Aurora needs NO redo replay.
//
// Aurora's recovery cost is a handful of quorum round-trips (probe SCLs,
// fetch tail shapes, install the new epoch + truncation) — independent of
// how much redo was written since any "checkpoint", because segments
// materialize blocks on their own. A traditional ARIES engine replays the
// log since the last checkpoint before opening.
//
// The table sweeps the amount of redo written before the crash and
// reports: measured Aurora recovery time (live cluster), ARIES expected
// replay time (same disk model), and verifies the ragged edge was snipped
// (in-flight un-acked writes annulled). The bench asserts the figure's
// shape: it exits non-zero unless every row keeps the acked write and
// annuls the ragged edge, Aurora recovery stays flat across log depth and
// ARIES replay grows with it. `--quick` prints and checks the table but
// skips the microbenchmark; CTest runs it that way.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "src/baseline/aries.h"

namespace aurora {
namespace {

struct RecoveryRow {
  int txns_before_crash;
  SimDuration aurora_recovery;
  SimDuration aries_recovery;
  bool acked_survived;
  bool unacked_annulled;
  VolumeEpoch epoch_after;
};

RecoveryRow RunOnce(int txns) {
  core::AuroraOptions options;
  options.seed = 777;
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  RecoveryRow row;
  row.txns_before_crash = txns;
  if (!cluster.StartBlocking().ok()) return row;
  for (int i = 0; i < txns; ++i) {
    (void)cluster.PutBlocking("k" + std::to_string(i % 300), "v" +
                              std::to_string(i));
  }
  // An in-flight transaction whose writes are issued but whose commit is
  // NOT acknowledged — the "ragged edge" of Figure 4.
  auto* writer = cluster.writer();
  const TxnId loser = writer->Begin();
  bool loser_acked = false;
  writer->Put(loser, "ragged-edge", "in-flight", [&](Status st) {
    if (st.ok()) {
      writer->Commit(loser, [&](Status cs) { loser_acked = cs.ok(); });
    }
  });
  // Crash immediately: the loser's records are in flight, unacked.
  cluster.CrashWriter();
  const SimTime crash_at = cluster.sim().Now();
  cluster.RunFor(10 * kMillisecond);

  const SimTime recovery_start = cluster.sim().Now();
  Status st = cluster.RecoverWriterBlocking();
  row.aurora_recovery = cluster.sim().Now() - recovery_start;
  if (!st.ok()) return row;
  row.epoch_after = cluster.writer()->volume_epoch();
  (void)crash_at;

  // Verify durability of the last acked write and annulment of the edge.
  auto last = cluster.GetBlocking("k" + std::to_string((txns - 1) % 300));
  row.acked_survived =
      last.ok() && !loser_acked;
  auto edge = cluster.GetBlocking("ragged-edge");
  row.unacked_annulled = edge.status().IsNotFound();

  // ARIES comparator: same number of redo records (≈4 records per txn:
  // undo + row + commit + occasional splits), no checkpoint since start.
  sim::Simulator aries_sim;
  baseline::AriesEngine aries(&aries_sim);
  aries.AppendRecords(static_cast<uint64_t>(txns) * 4);
  row.aries_recovery = aries.ExpectedRecoveryTime();
  return row;
}

}  // namespace
}  // namespace aurora

namespace {

void BM_AuroraRecovery(benchmark::State& state) {
  // Wall-clock cost of a full simulated crash recovery cycle.
  for (auto _ : state) {
    aurora::core::AuroraOptions options;
    options.blocks_per_pg = 1 << 16;
    aurora::core::AuroraCluster cluster(options);
    if (!cluster.StartBlocking().ok()) {
      state.SkipWithError("bootstrap failed");
      return;
    }
    for (int i = 0; i < 20; ++i) {
      (void)cluster.PutBlocking("k" + std::to_string(i), "v");
    }
    cluster.CrashWriter();
    cluster.RunFor(10 * aurora::kMillisecond);
    benchmark::DoNotOptimize(cluster.RecoverWriterBlocking());
  }
}
BENCHMARK(BM_AuroraRecovery)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::Table;
  using aurora::bench::Us;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  std::vector<aurora::RecoveryRow> rows;
  Table table(
      "Figure 4 / C7: time-to-open after crash vs redo since checkpoint");
  table.Columns({"txns before crash", "Aurora recovery", "ARIES replay",
                 "acked survived", "ragged edge annulled", "epoch"});
  for (int txns : {100, 1000, 5000, 20000}) {
    auto row = aurora::RunOnce(txns);
    rows.push_back(row);
    table.Row({std::to_string(row.txns_before_crash),
               Us(row.aurora_recovery), Us(row.aries_recovery),
               row.acked_survived ? "yes" : "NO (BUG)",
               row.unacked_annulled ? "yes" : "NO (BUG)",
               std::to_string(row.epoch_after)});
  }
  table.Print();
  std::printf(
      "(Aurora recovery is a constant few hundred ms of quorum RTTs and\n"
      " epoch installation, independent of log depth; ARIES replay grows\n"
      " linearly with redo since the last checkpoint. Undo of in-flight\n"
      " transactions happens lazily AFTER opening, in both designs'\n"
      " favor here.)\n");

  // The claim as printed: nothing acked lost, the edge annulled, Aurora
  // flat (within 25% across a 200x sweep) and ARIES growing.
  bool holds = true;
  aurora::SimDuration fastest = rows.front().aurora_recovery;
  aurora::SimDuration slowest = fastest;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    holds &= row.acked_survived && row.unacked_annulled;
    if (i > 0) holds &= row.aries_recovery > rows[i - 1].aries_recovery;
    fastest = std::min(fastest, row.aurora_recovery);
    slowest = std::max(slowest, row.aurora_recovery);
  }
  holds &= fastest > 0 && slowest * 4 <= fastest * 5;
  if (!holds) {
    std::fprintf(stderr,
                 "F4: FAIL expected acked writes kept, the ragged edge "
                 "annulled, Aurora recovery flat and ARIES replay growing\n");
    return 1;
  }

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
