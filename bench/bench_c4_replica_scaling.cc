// Experiment C4 — §3.2 claims: read scaling with shared-storage replicas.
//
// "Aurora read replicas attach to the same storage volume as the writer
// instance... There is little latency added to the write path on the
// writer instance since replication is asynchronous. Since we only update
// cached data blocks on the replicas, most resources on the replica remain
// available for read requests."
//
// Table: for N replicas, run a mixed workload (writer commits + replica
// point reads); report aggregate replica read throughput, replica VDL lag,
// and writer commit latency (which must NOT degrade with N).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace aurora {
namespace {

struct ScalingRow {
  int replicas;
  uint64_t writer_commits = 0;
  Histogram commit_latency;
  uint64_t replica_reads = 0;
  Histogram read_latency;
  Lsn mean_lag = 0;
};

ScalingRow RunWithReplicas(int n_replicas) {
  core::AuroraOptions options;
  options.seed = 1300 + n_replicas;
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  ScalingRow row;
  row.replicas = n_replicas;
  if (!cluster.StartBlocking().ok()) return row;
  for (int i = 0; i < 256; ++i) {
    (void)cluster.PutBlocking("key" + std::to_string(i), "v");
  }
  std::vector<replica::ReadReplica*> reps;
  for (int i = 0; i < n_replicas; ++i) reps.push_back(cluster.AddReplica());
  cluster.RunFor(500 * kMillisecond);  // replicas warm their caches

  // Replica read loops: each replica issues a read every 2ms.
  struct ReadLoop {
    core::AuroraCluster* cluster;
    replica::ReadReplica* rep;
    ScalingRow* row;
    Rng rng;
    SimTime end;
    std::function<void()> issue;
  };
  std::vector<std::shared_ptr<ReadLoop>> loops;
  const SimTime end = cluster.sim().Now() + 5 * kSecond;
  for (auto* rep : reps) {
    auto loop = std::make_shared<ReadLoop>(
        ReadLoop{&cluster, rep, &row, Rng(rep->id()), end, {}});
    loop->issue = [loop]() {
      if (loop->cluster->sim().Now() >= loop->end) return;
      const std::string key =
          "key" + std::to_string(loop->rng.NextBounded(256));
      const SimTime start = loop->cluster->sim().Now();
      loop->rep->Get(key, [loop, start](Result<std::string> r) {
        if (r.ok()) {
          loop->row->replica_reads++;
          loop->row->read_latency.Record(loop->cluster->sim().Now() -
                                         start);
        }
      });
      loop->cluster->sim().Schedule(2000, loop->issue);
    };
    loop->issue();
    loops.push_back(loop);
  }
  // Writer load in parallel.
  row.writer_commits = bench::RunOpenLoopWrites(cluster, 300.0, 5 * kSecond,
                                                &row.commit_latency);
  // Lag snapshot.
  Lsn total_lag = 0;
  for (auto* rep : reps) {
    total_lag += cluster.writer()->vdl() - rep->vdl();
  }
  row.mean_lag = reps.empty() ? 0 : total_lag / reps.size();
  for (auto& loop : loops) loop->issue = nullptr;  // break cycles
  return row;
}

}  // namespace
}  // namespace aurora

namespace {

void BM_ReplicaMtrApply(benchmark::State& state) {
  // Cost of applying one shipped MTR record to a cached page.
  aurora::storage::Page page;
  page.id = 1;
  aurora::storage::PageOp op;
  op.type = aurora::storage::PageOpType::kInsert;
  op.key = "k";
  op.value = std::string(64, 'v');
  const aurora::log::Payload payload = EncodePageOp(op);
  aurora::Lsn lsn = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aurora::storage::ApplyRedoPayload(&page, payload, lsn++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplicaMtrApply);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::Num;
  using aurora::bench::Table;
  using aurora::bench::Us;

  Table table("C4: shared-storage read replicas (5 simulated seconds)");
  table.Columns({"replicas", "writer commits", "commit p50", "commit p99",
                 "replica reads", "read p50", "mean VDL lag (LSNs)"});
  for (int n : {0, 1, 2, 4}) {
    auto row = aurora::RunWithReplicas(n);
    table.Row({std::to_string(n), std::to_string(row.writer_commits),
               Us(row.commit_latency.P50()), Us(row.commit_latency.P99()),
               std::to_string(row.replica_reads),
               n == 0 ? "-" : Us(row.read_latency.P50()),
               std::to_string(row.mean_lag)});
  }
  table.Print();
  std::printf(
      "(Replica read throughput scales ~linearly with N; writer commit\n"
      " latency is flat because replication is asynchronous and replicas\n"
      " never write to storage — durable state is shared, not copied.)\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
