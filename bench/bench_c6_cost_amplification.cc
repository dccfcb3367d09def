// Experiment C6 — §4.2 claim: quorum sets of unlike members cut cost.
//
// "A protection group is composed of three full segments, which store both
// redo log records and materialized data blocks, and three tail segments,
// which contain redo log records alone. Since most databases use much more
// space for data blocks than for redo logs, this yields a cost
// amplification closer to three copies of the data rather than a full six
// while satisfying our requirement to support AZ+1 failures."
//
// Reproduction: run identical workloads on a uniform-6 volume and a
// full/tail volume; measure actual bytes resident per segment class, the
// amplification relative to one logical copy, and prove both layouts'
// quorums still overlap. The bench asserts the claim itself: it exits
// non-zero unless the uniform layout stores 6.00x one copy and full/tail
// 3.00x, with sound quorums. `--quick` runs a smaller workload as a CTest
// smoke check and skips the microbenchmark.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>

#include "bench/bench_common.h"

namespace aurora {
namespace {

struct CostRow {
  const char* name;
  uint64_t block_bytes = 0;
  uint64_t log_bytes = 0;
  uint64_t logical_bytes = 0;  // one copy of materialized state
  bool quorums_sound = false;

  double Amplification() const {
    return logical_bytes == 0
               ? 0
               : static_cast<double>(block_bytes) / logical_bytes;
  }
};

CostRow RunModel(quorum::QuorumModel model, const char* name, int rows) {
  core::AuroraOptions options;
  options.seed = 808;
  options.quorum_model = model;
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  CostRow row;
  row.name = name;
  if (!cluster.StartBlocking().ok()) return row;
  // A data-heavy workload: many distinct keys with 256B values.
  for (int i = 0; i < rows; ++i) {
    (void)cluster.PutBlocking("row" + std::to_string(i),
                              std::string(256, 'd'));
  }
  // Writes carry PGMRPL, so coalescing, backup and version GC settle
  // without any read.
  cluster.RunFor(2 * kSecond);

  uint64_t logical = 0;
  for (const auto& node : cluster.storage_nodes()) {
    for (const auto& [id, segment] : node->segments()) {
      row.block_bytes += segment->TotalVersionBytes();
      row.log_bytes += segment->HotLogBytes();
      if (segment->is_full()) {
        logical = std::max(logical, segment->TotalVersionBytes());
      }
    }
  }
  row.logical_bytes = logical;
  const auto& pg = cluster.geometry().Pg(0);
  row.quorums_sound =
      quorum::QuorumSet::AlwaysOverlaps(pg.ReadSet(), pg.WriteSet()) &&
      quorum::QuorumSet::AlwaysOverlaps(pg.WriteSet(), pg.WriteSet());
  return row;
}

}  // namespace
}  // namespace aurora

namespace {

void BM_FullTailQuorumConstruction(benchmark::State& state) {
  std::vector<aurora::quorum::SegmentInfo> members;
  for (aurora::SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<aurora::NodeId>(100 + id),
                       static_cast<aurora::AzId>(id / 2), id % 2 == 0});
  }
  auto config = aurora::quorum::PgConfig::Create(
      0, aurora::quorum::QuorumModel::kFullTail, members);
  for (auto _ : state) {
    benchmark::DoNotOptimize(config.WriteSet());
    benchmark::DoNotOptimize(config.ReadSet());
  }
}
BENCHMARK(BM_FullTailQuorumConstruction);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::Num;
  using aurora::bench::Table;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int rows = quick ? 300 : 1200;
  auto uniform = aurora::RunModel(aurora::quorum::QuorumModel::kUniform46,
                                  "6 full segments (uniform 4/6)", rows);
  auto fulltail = aurora::RunModel(aurora::quorum::QuorumModel::kFullTail,
                                   "3 full + 3 tail (4/6 or 3/3F)", rows);

  Table table("C6: storage cost amplification, same " +
              std::to_string(rows) + "-row workload");
  table.Columns({"layout", "block bytes (fleet)", "log bytes (fleet)",
                 "amplification vs 1 copy", "quorum rules hold"});
  auto row = [&](const aurora::CostRow& r) {
    table.Row({r.name, std::to_string(r.block_bytes),
               std::to_string(r.log_bytes), Num(r.Amplification(), 2) + "x",
               r.quorums_sound ? "yes" : "NO (BUG)"});
  };
  row(uniform);
  row(fulltail);
  table.Print();
  std::printf(
      "(Block state dominates log state, so dropping materialization on\n"
      " three of six segments takes amplification from ~6x toward ~3x —\n"
      " §4.2's 'cost amplification closer to three copies' — while the\n"
      " exhaustive prover confirms the asymmetric quorums still overlap.)\n");

  // The claim as printed: 6.00x and 3.00x to two decimals.
  auto holds = [](const aurora::CostRow& r, double copies) {
    return r.quorums_sound && std::abs(r.Amplification() - copies) < 0.005;
  };
  if (!holds(uniform, 6.0) || !holds(fulltail, 3.0)) {
    std::fprintf(stderr,
                 "C6: FAIL expected 6.00x (uniform) and 3.00x (full/tail) "
                 "with sound quorums, got %.2fx and %.2fx\n",
                 uniform.Amplification(), fulltail.Amplification());
    return 1;
  }

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
