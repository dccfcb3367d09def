// Experiment F2 — Figure 2: activity in Aurora storage nodes.
//
// Foreground: (1) receive records, (2) durable update-queue append + ACK.
// Background: (3) sort/group, (4) gossip, (5) coalesce, (6) archive to the
// object store, (7) GC, (8) scrub. The paper's design point: only steps
// 1-2 are on the ack path, so foreground write latency stays flat while
// background work (coalescing, backup, GC) proceeds at its own pace.
//
// Reproduction: drive the cluster at increasing write rates and report,
// per rate: ack latency percentiles, per-stage activity counters summed
// over the fleet, hot-log/version residency, and archive volume.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace aurora {
namespace {

struct PipelineResult {
  double rate;
  uint64_t commits;
  Histogram commit_latency;
  storage::SegmentStats fleet;  // summed
  uint64_t hot_log_records = 0;
  uint64_t versions_bytes = 0;
  uint64_t archive_bytes = 0;
  double mean_disk_queue = 0;
};

PipelineResult RunAtRate(double txn_per_sec) {
  core::AuroraOptions options;
  options.seed = 4242;
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  PipelineResult result;
  result.rate = txn_per_sec;
  if (!cluster.StartBlocking().ok()) return result;
  (void)bench::RunClosedLoopWrites(cluster, 64, "warm");

  result.commits = bench::RunOpenLoopWrites(cluster, txn_per_sec,
                                            10 * kSecond,
                                            &result.commit_latency);
  // Let background stages catch up, then snapshot counters.
  cluster.RunFor(2 * kSecond);
  for (const auto& node : cluster.storage_nodes()) {
    for (const auto& [id, segment] : node->segments()) {
      const auto& s = segment->stats();
      result.fleet.records_received += s.records_received;
      result.fleet.records_coalesced += s.records_coalesced;
      result.fleet.records_gossip_filled += s.records_gossip_filled;
      result.fleet.records_gced += s.records_gced;
      result.fleet.scrub_corruptions_found += s.scrub_corruptions_found;
      result.hot_log_records += segment->hot_log().RecordCount();
      result.versions_bytes += segment->TotalVersionBytes();
    }
  }
  result.archive_bytes = cluster.object_store().bytes_stored();
  return result;
}

}  // namespace
}  // namespace aurora

namespace {

// Microbenchmarks of individual pipeline stages.
void BM_HotLogAppend(benchmark::State& state) {
  aurora::log::SegmentHotLog log;
  aurora::Lsn lsn = 1;
  aurora::log::RedoRecord rec;
  rec.pg = 0;
  rec.block = 1;
  rec.payload = std::string(100, 'x');
  for (auto _ : state) {
    rec.lsn = lsn;
    rec.prev_lsn_segment = lsn - 1;
    benchmark::DoNotOptimize(log.Append(aurora::log::SealedRecord(rec)));
    ++lsn;
    if (lsn % 100000 == 0) log.EvictBelow(lsn - 1000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotLogAppend);

void BM_CoalesceApply(benchmark::State& state) {
  aurora::storage::Page page;
  page.id = 1;
  aurora::storage::PageOp op;
  op.type = aurora::storage::PageOpType::kInsert;
  op.value = std::string(64, 'v');
  const std::string payload_base = "key";
  aurora::Lsn lsn = 1;
  for (auto _ : state) {
    op.key = payload_base + std::to_string(lsn % 64);
    const aurora::log::Payload payload = EncodePageOp(op);
    benchmark::DoNotOptimize(
        aurora::storage::ApplyRedoPayload(&page, payload, lsn++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoalesceApply);

void BM_RecordEncodeDecode(benchmark::State& state) {
  aurora::log::RedoRecord rec;
  rec.lsn = 42;
  rec.prev_lsn_segment = 41;
  rec.payload = std::string(100, 'p');
  for (auto _ : state) {
    const std::string encoded = aurora::log::EncodeRecord(rec);
    benchmark::DoNotOptimize(aurora::log::DecodeRecord(encoded));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordEncodeDecode);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::Num;
  using aurora::bench::Table;
  using aurora::bench::Us;

  Table table("Figure 2: storage-node pipeline under increasing write rate "
              "(10 simulated seconds per row)");
  table.Columns({"txn/s", "commits", "ack p50", "ack p99", "received",
                 "coalesced", "gossip-fill", "gc'd", "hotlog now",
                 "archive KB"});
  for (double rate : {100.0, 500.0, 2000.0, 5000.0}) {
    auto r = aurora::RunAtRate(rate);
    table.Row({Num(rate, 0), std::to_string(r.commits),
               Us(r.commit_latency.P50()), Us(r.commit_latency.P99()),
               std::to_string(r.fleet.records_received),
               std::to_string(r.fleet.records_coalesced),
               std::to_string(r.fleet.records_gossip_filled),
               std::to_string(r.fleet.records_gced),
               std::to_string(r.hot_log_records),
               Num(r.archive_bytes / 1024.0, 0)});
  }
  table.Print();
  std::printf(
      "(Only the durable update-queue append is on the ack path: commit\n"
      " latency stays flat as background coalesce/backup/GC volume grows\n"
      " with the rate. Gossip-fill counts holes repaired peer-to-peer.)\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
