// Experiment C7 — write-path throughput as the hardware sees it.
//
// The paper's core claim is that the data path is cheap BECAUSE it avoids
// consensus: a commit costs only local bookkeeping over asynchronous
// quorum acknowledgements (§2.3). That claim only holds if the local
// bookkeeping itself is cheap — so this benchmark measures how fast our
// reproduction pushes redo through the full pipeline (writer → driver →
// 6-way segment fan-out → SCL/PGCL/VCL/VDL advance → commit ack) in REAL
// wall-clock time, not simulated time.
//
// Three sustained-rate numbers are reported and written to
// BENCH_c7_write_throughput.json so the perf trajectory is tracked across
// PRs:
//   * records/sec  — per-member redo records pushed through the driver;
//   * commits/sec  — transactions acknowledged;
//   * events/sec   — simulator events executed (event-loop overhead).
// Beside them it counts heap allocations per txn (calls and bytes, via the
// replacement operator new in alloc_counter.cc): a host cost that, unlike
// the rates, is exact and gated bit for bit.
//
// `--quick` runs a small workload as a CTest smoke check (regressions in
// the hot path fail loudly); the full run uses enough transactions for a
// stable estimate. Microbenchmarks for the two hottest structures
// (SegmentHotLog append, boxcar+fanout) run under google-benchmark.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>

#include "bench/alloc_counter.h"
#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/log/hot_log.h"
#include "src/log/record.h"

namespace aurora {
namespace {

struct ThroughputResult {
  uint64_t txns = 0;
  uint64_t reads_done = 0;        // --read-ratio mixed-in point reads
  uint64_t records_sent = 0;      // per-member records through the driver
  uint64_t commits_acked = 0;
  uint64_t events_executed = 0;
  SimTime sim_elapsed = 0;
  double wall_seconds = 0;

  // Measured-window deltas of the writer driver's own stats(). The VDL
  // advance gaps and `metrics_json` (the cluster's MetricsJson()) cover
  // the whole run, warm-up included.
  uint64_t fanout_records = 0;
  uint64_t retransmitted_records = 0;
  uint64_t reads_issued = 0;
  uint64_t hedged_reads = 0;
  SimDuration vdl_advance_p50_us = 0;
  SimDuration vdl_advance_p99_us = 0;
  // The writer's commit wait (engine.commit_wait_us), whole run: exact
  // simulated latencies, gated bit for bit like the counts.
  SimDuration commit_wait_p50_us = 0;
  SimDuration commit_wait_p99_us = 0;
  // Block-version bytes the fleet holds at the end of the run: with
  // in-place coalescing below PGMRPL this is about one version per block
  // per full segment, not one per record.
  uint64_t fleet_version_bytes = 0;
  // What the rest of the storage pipeline keeps at the end of the run:
  // hot-log bytes the fleet still holds, archived bytes (one copy of each
  // record per PG) and records folded into block versions. All three are
  // deterministic and gated exactly.
  uint64_t fleet_hot_log_bytes = 0;
  uint64_t archive_bytes_stored = 0;
  uint64_t records_coalesced = 0;
  // Heap allocations (operator new calls and bytes requested) inside the
  // measured window: deterministic like the event count, gated exactly.
  bench::AllocCount allocs;
  std::string metrics_json;

  double HedgeRate() const {
    return reads_issued == 0
               ? 0.0
               : static_cast<double>(hedged_reads) / reads_issued;
  }
  double RecordsPerSec() const { return records_sent / wall_seconds; }
  double CommitsPerSec() const { return commits_acked / wall_seconds; }
  double EventsPerSec() const { return events_executed / wall_seconds; }
  double AllocsPerTxn() const {
    return txns == 0 ? 0.0 : static_cast<double>(allocs.calls) / txns;
  }
  double AllocBytesPerTxn() const {
    return txns == 0 ? 0.0 : static_cast<double>(allocs.bytes) / txns;
  }
};

/// Closed-loop sustained write workload: `txns` autocommit transactions
/// with a realistic row payload, one read replica attached (replication
/// shares the same record stream). Deterministic: the same seed and txn
/// count always execute the same simulated events. With `read_ratio` > 0
/// that fraction of operations becomes writer point reads (the mix is
/// drawn from a dedicated Rng that is never touched at ratio 0, so the
/// default workload stays bit-identical to earlier baselines).
ThroughputResult RunWorkload(int txns, uint64_t seed,
                             double read_ratio = 0.0) {
  core::AuroraOptions options;
  options.seed = seed;
  options.num_pgs = 2;  // VCL must straddle protection groups (Figure 3)
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  ThroughputResult result;
  if (!cluster.StartBlocking().ok()) return result;
  cluster.AddReplica();
  // Warm the tree so steady state dominates the measurement.
  (void)bench::RunClosedLoopWrites(cluster, 128, "warm");

  engine::StorageDriver* driver = cluster.writer()->driver();
  const engine::DriverStats driver_before = driver->stats();
  const uint64_t hedges_before = driver->router().hedged_reads();

  const std::string value(256, 'v');
  const uint64_t commits_before = cluster.writer()->stats().commits_acked;
  const uint64_t events_before = cluster.sim().ExecutedEvents();
  const SimTime sim_before = cluster.sim().Now();

  Rng mix_rng(seed ^ 0xc7ead);
  uint64_t writes_done = 0;  // == i when read_ratio is 0
  const bench::AllocCount allocs_before = bench::AllocsSoFar();
  const auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < txns; ++i) {
    if (read_ratio > 0 && writes_done > 0 &&
        mix_rng.NextDouble() < read_ratio) {
      // Point-read a key this run already wrote.
      const uint64_t k = mix_rng.NextBounded(writes_done) % 4096;
      if (cluster.GetBlocking("c7-" + std::to_string(k)).ok()) {
        result.reads_done++;
      }
      continue;
    }
    Status st =
        cluster.PutBlocking("c7-" + std::to_string(writes_done % 4096), value);
    if (!st.ok()) break;
    writes_done++;
  }
  const auto wall_end = std::chrono::steady_clock::now();
  result.allocs = bench::AllocsSoFar() - allocs_before;

  result.txns = static_cast<uint64_t>(txns);
  const engine::DriverStats& driver_after = driver->stats();
  result.records_sent = driver_after.records_sent - driver_before.records_sent;
  result.commits_acked =
      cluster.writer()->stats().commits_acked - commits_before;
  result.events_executed = cluster.sim().ExecutedEvents() - events_before;
  result.sim_elapsed = cluster.sim().Now() - sim_before;
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (result.wall_seconds <= 0) result.wall_seconds = 1e-9;

  result.fanout_records = result.records_sent;
  result.retransmitted_records =
      driver_after.retransmissions - driver_before.retransmissions;
  result.reads_issued = driver_after.reads_issued - driver_before.reads_issued;
  result.hedged_reads = driver->router().hedged_reads() - hedges_before;
  result.vdl_advance_p50_us = driver->vdl_advance_gap().Percentile(0.50);
  result.vdl_advance_p99_us = driver->vdl_advance_gap().Percentile(0.99);
  result.commit_wait_p50_us = cluster.writer()->commit_latency().P50();
  result.commit_wait_p99_us = cluster.writer()->commit_latency().P99();
  cluster.ForEachSegment(
      [&](storage::StorageNode*, storage::SegmentStore* segment) {
        result.fleet_version_bytes += segment->TotalVersionBytes();
        result.fleet_hot_log_bytes += segment->HotLogBytes();
        result.records_coalesced += segment->stats().records_coalesced;
      });
  result.archive_bytes_stored = cluster.object_store().bytes_stored();
  result.metrics_json = cluster.MetricsJson();
  return result;
}

}  // namespace
}  // namespace aurora

namespace {

// ---------------------------------------------------------------------- //
// Microbenchmarks for the hot structures themselves.

aurora::log::RedoRecord MakeRecord(aurora::Lsn lsn, aurora::Lsn prev_seg,
                                   size_t payload_bytes) {
  aurora::log::RedoRecord rec;
  rec.lsn = lsn;
  rec.prev_lsn_volume = lsn - 1;
  rec.prev_lsn_segment = prev_seg;
  rec.prev_lsn_block = 0;
  rec.pg = 0;
  rec.block = lsn % 512;
  rec.txn = 1;
  rec.payload = std::string(payload_bytes, 'p');
  return rec;
}

void BM_HotLogAppendInOrder(benchmark::State& state) {
  // In-order append is the overwhelmingly common case: a single writer
  // allocates LSNs monotonically and the network rarely reorders.
  const size_t n = 4096;
  for (auto _ : state) {
    aurora::log::SegmentHotLog log;
    for (aurora::Lsn l = 1; l <= n; ++l) {
      benchmark::DoNotOptimize(
          log.Append(aurora::log::Seal(MakeRecord(l, l - 1, 256))));
    }
    benchmark::DoNotOptimize(log.scl());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HotLogAppendInOrder)->Unit(benchmark::kMicrosecond);

void BM_HotLogGossipChain(benchmark::State& state) {
  aurora::log::SegmentHotLog log;
  const size_t n = 4096;
  for (aurora::Lsn l = 1; l <= n; ++l) {
    (void)log.Append(aurora::log::Seal(MakeRecord(l, l - 1, 256)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.ChainAfter(n / 2, 1024));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HotLogGossipChain)->Unit(benchmark::kMicrosecond);

void BM_RecordFanOutCopy(benchmark::State& state) {
  // The driver hands each record to 6 segment boxcars, retains it for
  // retransmission, and ships it to replicas — 8+ handoffs per record.
  // This measures the cost of one such handoff: a sealed-handle copy.
  const aurora::log::SealedRecord rec =
      aurora::log::Seal(MakeRecord(1, 0, 256));
  for (auto _ : state) {
    aurora::log::SealedRecord copy = rec;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordFanOutCopy);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::BenchJson;
  using aurora::bench::Num;
  using aurora::bench::Table;

  bool quick = false;
  double read_ratio = 0.0;  // 0 = pure writes (the gated baseline shape)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--read-ratio=", 13) == 0) {
      read_ratio = std::atof(argv[i] + 13);
    }
  }

  const int txns = quick ? 1500 : 15000;
  const auto result = aurora::RunWorkload(txns, /*seed=*/4242, read_ratio);
  if (result.commits_acked == 0) {
    std::fprintf(stderr, "C7: workload failed to commit anything\n");
    return 1;
  }

  Table table("C7: sustained write-path throughput (wall clock)");
  table.Columns({"metric", "count", "per wall-second"});
  table.Row({"txns issued", std::to_string(result.txns), ""});
  if (read_ratio > 0) {
    table.Row({"reads mixed in (--read-ratio=" + Num(read_ratio, 2) + ")",
               std::to_string(result.reads_done), ""});
  }
  table.Row({"records sent (per-member)", std::to_string(result.records_sent),
             Num(result.RecordsPerSec(), 0)});
  table.Row({"commits acked", std::to_string(result.commits_acked),
             Num(result.CommitsPerSec(), 0)});
  table.Row({"sim events executed", std::to_string(result.events_executed),
             Num(result.EventsPerSec(), 0)});
  table.Row({"wall seconds", Num(result.wall_seconds, 3), ""});
  table.Row({"sim seconds", Num(result.sim_elapsed / 1e6, 3), ""});
  table.Row({"fan-out record copies", std::to_string(result.fanout_records),
             ""});
  table.Row({"retransmitted records",
             std::to_string(result.retransmitted_records), ""});
  table.Row({"VDL advance gap p50/p99 (us)",
             std::to_string(result.vdl_advance_p50_us) + " / " +
                 std::to_string(result.vdl_advance_p99_us),
             ""});
  table.Row({"commit wait p50/p99 (us)",
             std::to_string(result.commit_wait_p50_us) + " / " +
                 std::to_string(result.commit_wait_p99_us),
             ""});
  table.Row({"hedge rate", Num(result.HedgeRate(), 4), ""});
  table.Row({"fleet block-version bytes",
             std::to_string(result.fleet_version_bytes), ""});
  table.Row({"fleet hot-log bytes",
             std::to_string(result.fleet_hot_log_bytes), ""});
  table.Row({"archive bytes stored",
             std::to_string(result.archive_bytes_stored), ""});
  table.Row({"records coalesced", std::to_string(result.records_coalesced),
             ""});
  table.Row({"heap allocs / bytes per txn",
             Num(result.AllocsPerTxn(), 1) + " / " +
                 Num(result.AllocBytesPerTxn(), 0),
             ""});
  table.Print();

  BenchJson json("c7_write_throughput");
  json.SetString("mode", quick ? "quick" : "full")
      .Set("txns", result.txns)
      .Set("read_ratio", read_ratio)
      .Set("reads_done", result.reads_done)
      .Set("records_sent", result.records_sent)
      .Set("commits_acked", result.commits_acked)
      .Set("events_executed", result.events_executed)
      .Set("wall_seconds", result.wall_seconds)
      .Set("sim_seconds", result.sim_elapsed / 1e6)
      .Set("records_per_sec", result.RecordsPerSec())
      .Set("commits_per_sec", result.CommitsPerSec())
      .Set("events_per_sec", result.EventsPerSec())
      .Set("fanout_records", result.fanout_records)
      .Set("retransmitted_records", result.retransmitted_records)
      .Set("reads_issued", result.reads_issued)
      .Set("hedged_reads", result.hedged_reads)
      .Set("hedge_rate", result.HedgeRate())
      .Set("vdl_advance_p50_us", static_cast<uint64_t>(result.vdl_advance_p50_us))
      .Set("vdl_advance_p99_us", static_cast<uint64_t>(result.vdl_advance_p99_us))
      .Set("commit_wait_p50_us",
           static_cast<uint64_t>(result.commit_wait_p50_us))
      .Set("commit_wait_p99_us",
           static_cast<uint64_t>(result.commit_wait_p99_us))
      .Set("fleet_version_bytes", result.fleet_version_bytes)
      .Set("fleet_hot_log_bytes", result.fleet_hot_log_bytes)
      .Set("archive_bytes_stored", result.archive_bytes_stored)
      .Set("records_coalesced", result.records_coalesced)
      .Set("allocs_per_txn", result.AllocsPerTxn())
      .Set("alloc_bytes_per_txn", result.AllocBytesPerTxn())
      .SetRaw("metrics", result.metrics_json);
  if (!json.WriteFile()) return 1;

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
