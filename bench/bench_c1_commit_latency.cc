// Experiment C1 — §2.3 claim: commits without 2PC or Paxos.
//
// "A traditional relational database ... might use a two-phase commit, or
// a Paxos commit ... This is heavyweight and introduces stalls and jitter
// into the write path." Aurora instead acknowledges a commit as soon as
// VCL passes the SCN, driven purely by asynchronous quorum write acks.
//
// All three systems run on the SAME simulated network (3 AZs, lognormal
// link latency with a heavy tail) and the same disk model; the table
// reports the commit latency distribution of each. The expected shape:
// Aurora ~ one cross-AZ one-way + 4th-fastest-of-6 ack; MultiPaxos ~ one
// RTT to a majority (a stable leader matches or beats Aurora's median,
// but leader change widens its tail); 2PC ~ two RTTs gated on the SLOWEST
// of all participants, with p999 blowing up under the tail.
//
// The bench exits 1 unless the shape holds: one slow participant lifts
// the 2PC p50 to at least 10x Aurora's, Aurora has the lowest p999/p50 of
// the four rows, and p999 orders Aurora < MultiPaxos < 2PC. `--quick`
// prints and checks the table but skips the wall-clock microbenchmark;
// CTest runs it that way.

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench/bench_common.h"
#include "src/baseline/paxos.h"
#include "src/baseline/two_phase_commit.h"

namespace aurora {
namespace {

constexpr int kTxns = 2000;

Histogram AuroraCommitLatency() {
  core::AuroraOptions options;
  options.seed = 9001;
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  if (!cluster.StartBlocking().ok()) return {};
  // Warm up tree + status pages.
  (void)bench::RunClosedLoopWrites(cluster, 64, "warm");
  cluster.writer()->commit_latency().Reset();
  Histogram latency;
  bench::RunOpenLoopWrites(cluster, /*txn_per_sec=*/500.0, 5 * kSecond,
                           &latency);
  return latency;
}

Histogram TpcCommitLatency(bool inject_slow_participant) {
  sim::Simulator sim(77);
  sim::Network net(&sim);
  std::vector<std::unique_ptr<baseline::TpcParticipant>> participants;
  std::vector<baseline::TpcParticipant*> raw;
  for (NodeId id = 10; id < 16; ++id) {
    participants.push_back(std::make_unique<baseline::TpcParticipant>(
        &sim, &net, id, static_cast<AzId>((id - 10) / 2)));
    raw.push_back(participants.back().get());
  }
  if (inject_slow_participant) net.SetNodeSlowdown(15, 10.0);
  baseline::TpcCoordinator coordinator(&sim, &net, 1, 0, raw);
  for (int i = 0; i < kTxns; ++i) {
    sim.Schedule(i * 2000, [&]() { coordinator.Commit([](bool) {}); });
  }
  sim.Run();
  return coordinator.latency();
}

Histogram PaxosCommitLatency() {
  sim::Simulator sim(78);
  sim::Network net(&sim);
  std::vector<std::unique_ptr<baseline::PaxosAcceptor>> acceptors;
  std::vector<baseline::PaxosAcceptor*> raw;
  for (NodeId id = 20; id < 25; ++id) {
    acceptors.push_back(std::make_unique<baseline::PaxosAcceptor>(
        &sim, &net, id, static_cast<AzId>((id - 20) % 3)));
    raw.push_back(acceptors.back().get());
  }
  baseline::MultiPaxosLog log(&sim, &net, 1, 0, raw);
  for (int i = 0; i < kTxns; ++i) {
    sim.Schedule(i * 2000, [&, i]() {
      // Occasional leader churn (deploys, failures) forces prepare rounds.
      if (i % 500 == 250) log.LoseLeadership();
      log.Append("commit-record", [](uint64_t) {});
    });
  }
  sim.Run();
  return log.latency();
}

}  // namespace
}  // namespace aurora

namespace {

void BM_AuroraCommitPath(benchmark::State& state) {
  // Wall-clock cost of simulating one committed transaction end-to-end
  // (simulator + protocol overhead per txn).
  aurora::core::AuroraOptions options;
  options.blocks_per_pg = 1 << 16;
  aurora::core::AuroraCluster cluster(options);
  if (!cluster.StartBlocking().ok()) {
    state.SkipWithError("bootstrap failed");
    return;
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster.PutBlocking("bench" + std::to_string(i++ % 128), "v"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuroraCommitPath)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::Table;
  using aurora::bench::Us;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  auto aurora_lat = aurora::AuroraCommitLatency();
  auto tpc_lat = aurora::TpcCommitLatency(false);
  auto tpc_slow_lat = aurora::TpcCommitLatency(true);
  auto paxos_lat = aurora::PaxosCommitLatency();

  Table table(
      "C1: commit latency on identical network/disks (simulated us)");
  table.Columns({"system", "p50", "p90", "p99", "p999", "mean"});
  auto row = [&](const char* name, const aurora::Histogram& h) {
    table.Row({name, Us(h.P50()), Us(h.P90()), Us(h.P99()), Us(h.P999()),
               Us(static_cast<aurora::SimDuration>(h.Mean()))});
  };
  row("Aurora quorum-VCL commit", aurora_lat);
  row("MultiPaxos commit (5 acceptors)", paxos_lat);
  row("2PC commit (6 participants)", tpc_lat);
  row("2PC + one 10x-slow participant", tpc_slow_lat);
  table.Print();
  std::printf(
      "(Shape: Aurora has the tightest distribution and the lowest p999 —\n"
      " the 4/6 quorum masks slow copies; a stable-leader MultiPaxos has\n"
      " the lowest p50, but leader churn widens its tail; 2PC pays 2 RTTs\n"
      " gated on the slowest of ALL participants, so a single slow node\n"
      " multiplies its p50.)\n");

  // The shape as printed, checked on the same histograms.
  auto spread = [](const aurora::Histogram& h) {
    return static_cast<double>(h.P999()) / static_cast<double>(h.P50());
  };
  const bool slow_2pc_p50 = tpc_slow_lat.P50() >= 10 * aurora_lat.P50();
  const bool tightest = spread(aurora_lat) < spread(paxos_lat) &&
                        spread(aurora_lat) < spread(tpc_lat) &&
                        spread(aurora_lat) < spread(tpc_slow_lat);
  const bool p999_order = aurora_lat.P999() < paxos_lat.P999() &&
                          paxos_lat.P999() < tpc_lat.P999();
  if (aurora_lat.count() == 0 || !slow_2pc_p50 || !tightest || !p999_order) {
    std::fprintf(stderr,
                 "C1: FAIL samples=%llu 2PC+slow p50 >= 10x Aurora p50: %s; "
                 "Aurora lowest p999/p50: %s; p999 Aurora < MultiPaxos < "
                 "2PC: %s\n",
                 static_cast<unsigned long long>(aurora_lat.count()),
                 slow_2pc_p50 ? "yes" : "NO", tightest ? "yes" : "NO",
                 p999_order ? "yes" : "NO");
    return 1;
  }

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
