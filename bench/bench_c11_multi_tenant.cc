// Experiment C11 — the multi-tenant storage fleet.
//
// DESIGN.md §11: one segment-server fleet hosts many independent volumes,
// each with its own writer, LSN space, and epoch lineage; the placement
// service spreads every volume's protection groups across the shared
// servers under anti-affinity, and the per-server deficit-round-robin
// (DRR) scheduler bounds how far a noisy tenant can push a quiet co-tenant's
// commit latency. This bench drives that whole stack at fleet shape:
// every tenant runs an open-loop writer against its own volume, all
// tenants contend for the same disks concurrently.
//
// Two sweeps:
//   * scale grid   — tenants {1,4,10,25} x PGs/volume {4,16}. Per cell: aggregate commits/sec
//                    (wall-clock — the gated floor), per-tenant commit
//                    p50/p99, and the fairness ratio min/max of
//                    per-tenant acked counts (1.0 = perfectly even).
//   * noisy neighbor — two tenants on one fleet, one saturating the
//                    disks, one quiet. The quiet tenant's p99 must stay
//                    within 2x of its solo p99 (same fleet, noisy tenant
//                    silent). The 2x bound is asserted — the bench exits nonzero
//                    if QoS fails — because the simulated latencies are
//                    deterministic in the seed.
//
// `--quick` runs one small grid cell plus the noisy-neighbor check as a
// CTest smoke + bench_gate input.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/core/placement.h"
#include "src/storage/storage_node.h"

namespace aurora {
namespace {

struct MultiTenantConfig {
  size_t tenants = 4;
  size_t pgs_per_volume = 4;
  /// Open-loop arrival rate per tenant (txn/s).
  double txn_per_sec = 1500;
  SimDuration window = 120 * kMillisecond;
  uint64_t seed = 8111;

  std::string Label() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "t%02zu_pg%02zu", tenants,
                  pgs_per_volume);
    return buf;
  }
};

struct TenantOutcome {
  uint64_t acked = 0;
  Histogram latency;
};

struct MultiTenantResult {
  MultiTenantConfig config;
  std::vector<TenantOutcome> tenants;
  uint64_t total_acked = 0;
  uint64_t throttled = 0;  // DRR fair-share deferrals, fleet-wide
  double wall_seconds = 0;
  std::string metrics_json;

  double CommitsPerSec() const { return total_acked / wall_seconds; }
  /// min/max of per-tenant acked counts: 1.0 = perfectly even service.
  double FairnessRatio() const {
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& t : tenants) {
      lo = std::min(lo, t.acked);
      hi = std::max(hi, t.acked);
    }
    return hi == 0 ? 0.0 : static_cast<double>(lo) / hi;
  }
};

core::AuroraOptions MakeOptions(const MultiTenantConfig& config) {
  core::AuroraOptions options;
  options.seed = config.seed;
  options.volumes = config.tenants;
  options.num_pgs = config.pgs_per_volume;
  options.blocks_per_pg = 1 << 16;
  // Big grids (25 tenants x 16 PGs = 400 PGs, 2400 segments) get a wider
  // fleet so the per-server segment count stays production-plausible.
  options.storage_nodes_per_az = config.tenants >= 10 ? 4 : 2;
  return options;
}

/// Per-tenant open-loop rates; rates[v] == 0 keeps tenant v silent.
MultiTenantResult RunCell(const MultiTenantConfig& config,
                          const std::vector<double>& rates) {
  MultiTenantResult result;
  result.config = config;
  result.tenants.resize(config.tenants);

  core::AuroraCluster cluster(MakeOptions(config));
  if (!cluster.StartBlocking().ok()) return result;

  std::vector<std::shared_ptr<bench::OpenLoopState>> loops;
  for (size_t v = 0; v < config.tenants; ++v) {
    if (rates[v] <= 0) continue;
    loops.push_back(bench::StartOpenLoopWrites(
        cluster, cluster.writer(static_cast<VolumeId>(v)), rates[v],
        config.window, &result.tenants[v].latency));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.RunFor(config.window + 2 * kSecond);
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (result.wall_seconds <= 0) result.wall_seconds = 1e-9;

  size_t loop_idx = 0;
  for (size_t v = 0; v < config.tenants; ++v) {
    if (rates[v] <= 0) continue;
    result.tenants[v].acked = loops[loop_idx]->acked;
    result.total_acked += loops[loop_idx]->acked;
    loops[loop_idx]->Finish();
    ++loop_idx;
  }
  for (const auto& node : cluster.storage_nodes()) {
    for (VolumeId v : node->TenantIds()) {
      result.throttled += node->tenant_stats(v).throttled;
    }
  }
  result.metrics_json = cluster.MetricsJson();
  return result;
}

MultiTenantResult RunGridCell(const MultiTenantConfig& config) {
  return RunCell(config,
                 std::vector<double>(config.tenants, config.txn_per_sec));
}

struct NoisyNeighborResult {
  /// Quiet tenant alone on the two-volume fleet.
  Histogram solo;
  /// Quiet tenant sharing with a saturating noisy tenant.
  Histogram shared;
  uint64_t noisy_acked = 0;
  uint64_t quiet_acked = 0;
  uint64_t throttled = 0;
  bool ran = false;
};

NoisyNeighborResult RunNoisyNeighbor() {
  // The noisy tenant's arrival rate is chosen to overrun the shared
  // disks (one ~40us-service-time device per server), so the quiet
  // tenant's writes genuinely queue behind the noisy tenant's backlog —
  // exactly the regime the DRR scheduler exists for.
  constexpr double kNoisyRate = 20000;
  constexpr double kQuietRate = 400;
  MultiTenantConfig config;
  config.tenants = 2;
  config.pgs_per_volume = 4;
  config.window = 100 * kMillisecond;
  config.seed = 8112;

  NoisyNeighborResult out;

  MultiTenantResult solo = RunCell(config, {0.0, kQuietRate});
  if (solo.tenants.size() != 2 || solo.tenants[1].acked == 0) return out;
  out.solo = solo.tenants[1].latency;

  MultiTenantResult shared = RunCell(config, {kNoisyRate, kQuietRate});
  if (shared.tenants[1].acked == 0) return out;
  out.shared = shared.tenants[1].latency;
  out.noisy_acked = shared.tenants[0].acked;
  out.quiet_acked = shared.tenants[1].acked;
  out.throttled = shared.throttled;
  out.ran = true;
  return out;
}

/// Microbench: one full PlacePg decision (six copies, three AZs, load
/// probe consulted per candidate) on a 12-server fleet. This is the unit
/// of work the control plane pays per protection group at bootstrap and
/// per replacement pick during repair.
void BM_PlacePg(benchmark::State& state) {
  core::PlacementService placement;
  std::map<NodeId, size_t> load;
  placement.SetLoadSource([&](NodeId id) { return load[id]; });
  NodeId next_node = 1;
  for (AzId az = 0; az < 3; ++az) {
    for (int i = 0; i < 4; ++i) placement.RegisterServer(next_node++, az);
  }
  SegmentId next_segment = 1;
  for (auto _ : state) {
    auto placed = placement.PlacePg(0, quorum::QuorumModel::kUniform46,
                                    [&] { return next_segment++; });
    if (!placed.ok()) {
      state.SkipWithError("PlacePg failed");
      break;
    }
    for (const auto& info : *placed) load[info.node]++;
    benchmark::DoNotOptimize(placed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PlacePg);

}  // namespace
}  // namespace aurora

int main(int argc, char** argv) {
  using aurora::bench::BenchJson;
  using aurora::bench::Num;
  using aurora::bench::Table;
  using aurora::bench::Us;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::vector<aurora::MultiTenantConfig> cells;
  if (quick) {
    // Still a real fleet: 10 tenants x 10 PGs = 100 protection groups
    // (600 segments) on 12 shared servers.
    aurora::MultiTenantConfig config;
    config.tenants = 10;
    config.pgs_per_volume = 10;
    config.window = 100 * aurora::kMillisecond;
    cells.push_back(config);
  } else {
    for (size_t tenants : {1u, 4u, 10u, 25u}) {
      for (size_t pgs : {4u, 16u}) {
        aurora::MultiTenantConfig config;
        config.tenants = tenants;
        config.pgs_per_volume = pgs;
        cells.push_back(config);
      }
    }
  }

  Table table(quick ? "C11: multi-tenant fleet (quick cell)"
                    : "C11: multi-tenant fleet — tenants x PGs sweep");
  table.Columns({"cell", "commits", "commits/s (wall)", "tenant p50",
                 "tenant p99", "fairness", "throttled"});

  BenchJson json("c11_multi_tenant");
  json.SetString("mode", quick ? "quick" : "full");

  std::vector<aurora::MultiTenantResult> results;
  for (const auto& config : cells) {
    aurora::MultiTenantResult r = aurora::RunGridCell(config);
    if (r.total_acked == 0) {
      std::fprintf(stderr, "C11: cell %s completed no commits\n",
                   config.Label().c_str());
      return 1;
    }
    // Worst per-tenant percentiles across the cell: the multi-tenant
    // claim is about every tenant's experience, not the aggregate.
    aurora::SimDuration p50 = 0, p99 = 0;
    for (const auto& t : r.tenants) {
      p50 = std::max(p50, t.latency.P50());
      p99 = std::max(p99, t.latency.P99());
    }
    table.Row({config.Label(), std::to_string(r.total_acked),
               Num(r.CommitsPerSec(), 0), Us(p50), Us(p99),
               Num(r.FairnessRatio(), 3), std::to_string(r.throttled)});
    results.push_back(std::move(r));
  }

  const aurora::MultiTenantResult& head = results.front();
  json.Set("commits_done", head.total_acked)
      .Set("commits_per_sec", head.CommitsPerSec())
      .Set("fairness_ratio", head.FairnessRatio())
      .Set("throttled", head.throttled)
      .Set("tenants", static_cast<uint64_t>(head.config.tenants))
      .Set("pgs_per_volume", static_cast<uint64_t>(head.config.pgs_per_volume))
      .Set("wall_seconds", head.wall_seconds);
  if (!quick) {
    for (const auto& r : results) {
      const std::string suffix = "_" + r.config.Label();
      aurora::SimDuration p99 = 0;
      for (const auto& t : r.tenants) p99 = std::max(p99, t.latency.P99());
      json.Set("commits_done" + suffix, r.total_acked)
          .Set("commits_per_sec" + suffix, r.CommitsPerSec())
          .Set("fairness_ratio" + suffix, r.FairnessRatio())
          .Set("tenant_p99_us" + suffix, static_cast<uint64_t>(p99));
    }
  }

  // Noisy neighbor: the QoS acceptance bound, asserted.
  aurora::NoisyNeighborResult noisy = aurora::RunNoisyNeighbor();
  if (!noisy.ran) {
    std::fprintf(stderr, "C11: noisy-neighbor cell failed to complete\n");
    return 1;
  }
  Table nn("C11: noisy neighbor — quiet tenant commit latency");
  nn.Columns({"cell", "quiet p50", "quiet p99", "noisy acked", "throttled"});
  nn.Row({"solo", Us(noisy.solo.P50()), Us(noisy.solo.P99()), "-", "-"});
  nn.Row({"shared", Us(noisy.shared.P50()),
          Us(noisy.shared.P99()), std::to_string(noisy.noisy_acked),
          std::to_string(noisy.throttled)});

  table.Print();
  nn.Print();

  json.Set("quiet_solo_p99_us", static_cast<uint64_t>(noisy.solo.P99()))
      .Set("quiet_shared_p99_us",
           static_cast<uint64_t>(noisy.shared.P99()))
      .Set("noisy_acked", noisy.noisy_acked)
      .Set("quiet_acked", noisy.quiet_acked)
      .SetRaw("metrics", head.metrics_json);
  if (!json.WriteFile()) return 1;

  // QoS bound (deterministic in the seed, so a hard gate): a saturating
  // co-tenant may not push the quiet tenant's p99 beyond 2x solo.
  const double solo_p99 = static_cast<double>(noisy.solo.P99());
  const double shared_p99 = static_cast<double>(noisy.shared.P99());
  if (shared_p99 > 2.0 * solo_p99) {
    std::fprintf(stderr,
                 "C11: QoS FAILED — quiet tenant p99 %.0fus vs solo %.0fus "
                 "(> 2x)\n",
                 shared_p99, solo_p99);
    return 1;
  }
  std::printf("\nC11: QoS ok — quiet p99 %s vs solo %s (<= 2x)\n",
              Us(noisy.shared.P99()).c_str(),
              Us(noisy.solo.P99()).c_str());

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
