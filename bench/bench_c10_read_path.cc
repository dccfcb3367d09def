// Experiment C10 — the production-scale read path.
//
// §3.1: Aurora reads avoid quorums entirely — the instance tracks
// segment-level SCL bookkeeping, routes each block read to one up-to-date
// segment, and hedges slow requests. §3.4 adds up to 15 read replicas on
// the shared volume, each applying the writer's redo stream to cached
// blocks only. This bench drives that whole stack at production shape:
// client sessions issue Zipf-skewed read/update mixes against replica
// fleets of 1/3/7/15, with replica caches sized well below the working
// set so misses become real SegmentStore reads (eviction-driven, not
// synthetic).
//
// Per cell (replicas x zipf-theta x update-ratio) the run reports:
//   * read p50/p99      — session-observed simulated latency;
//   * cache hit rate    — replica BufferCache hits/(hits+misses);
//   * hedge rate        — driver hedged reads / reads issued (§3.1);
//   * replica lag       — sampled (writer VDL - replica VDL) percentiles;
//   * reads/sec         — wall-clock session read completions (the gated
//                         floor in scripts/bench_gate.sh).
//
// `--quick` runs one small cell as a CTest smoke + bench_gate input; the
// full run sweeps replicas {1,3,7,15} x theta {0, 0.99, 1.2} x update
// ratios {0, 0.2}. Everything is driven on the serial engine and is
// deterministic in the seed (the read-heavy parallel-engine equivalence
// is covered by parallel_determinism_test).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/session.h"

namespace aurora {
namespace {

struct ReadPathConfig {
  size_t replicas = 3;
  double theta = 0.99;
  double update_ratio = 0.0;
  /// Fraction of read ops issued as ClientSession::Scan (16-key ranges
  /// starting at the Zipf key) instead of point Gets — the "session Scan"
  /// ablation. Scans take the same anchored-replica route as Gets.
  double scan_ratio = 0.0;
  int keys = 1200;
  int sessions = 4;
  SimDuration window = 150 * kMillisecond;
  uint64_t seed = 7101;

  std::string Label() const {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "r%02zu_t%03d_u%02d", replicas,
                  static_cast<int>(theta * 100 + 0.5),
                  static_cast<int>(update_ratio * 100 + 0.5));
    return buf;
  }
};

struct ReadPathResult {
  ReadPathConfig config;
  uint64_t gets_done = 0;
  uint64_t puts_done = 0;
  uint64_t scans_done = 0;
  uint64_t anchor_waits = 0;  // replica reads parked for a VDL advance
  uint64_t replica_reads = 0;
  uint64_t writer_fallbacks = 0;
  uint64_t storage_reads_issued = 0;  // replica drivers -> SegmentStore
  uint64_t hedged_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  Histogram read_latency;  // session-observed, simulated us
  Histogram scan_latency;  // session-observed Scan completions
  Histogram replica_lag;   // sampled writer VDL - replica VDL, in LSNs
  double wall_seconds = 0;
  std::string metrics_json;

  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 1.0 : static_cast<double>(cache_hits) / total;
  }
  double HedgeRate() const {
    return storage_reads_issued == 0
               ? 0.0
               : static_cast<double>(hedged_reads) / storage_reads_issued;
  }
  double ReadsPerSec() const { return gets_done / wall_seconds; }
};

// One closed-loop session: at most one operation in flight, Zipf key
// choice, a small think time so sessions interleave rather than lockstep.
struct SessionLoop {
  std::unique_ptr<core::ClientSession> session;
  Rng rng{0};
  ZipfianGenerator zipf{1, 0.99};
  double update_ratio = 0.0;
  double scan_ratio = 0.0;
  int keys = 0;
  SimTime deadline = 0;
  uint64_t gets_done = 0;
  uint64_t puts_done = 0;
  uint64_t scans_done = 0;
  Histogram* latency = nullptr;
  Histogram* scan_latency = nullptr;
  core::AuroraCluster* cluster = nullptr;

  void Pump() {
    auto& sim = cluster->sim();
    if (sim.Now() >= deadline) return;
    const int k = static_cast<int>(zipf.Next(rng)) % keys;
    char key[16];
    std::snprintf(key, sizeof(key), "c10-%05d", k);
    auto next = [this] {
      cluster->sim().Schedule(50 + rng.Next() % 100, [this] { Pump(); });
    };
    if (update_ratio > 0 && rng.NextDouble() < update_ratio) {
      session->Put(key, "u" + std::to_string(puts_done),
                   [this, next](Status st) {
                     if (st.ok()) puts_done++;
                     next();
                   });
    } else if (scan_ratio > 0 && rng.NextDouble() < scan_ratio) {
      // Range scan: 16 keys starting at the Zipf pick. Scans ride the
      // same anchored-replica route as Gets, so a scan landing right
      // after this session's own update parks on the anchor-wait path.
      char hi[16];
      std::snprintf(hi, sizeof(hi), "c10-%05d", k + 16);
      const SimTime start = sim.Now();
      session->Scan(
          key, hi, 16,
          [this, next, start](
              Result<std::vector<std::pair<std::string, std::string>>> r) {
            if (r.ok()) {
              scans_done++;
              scan_latency->Record(cluster->sim().Now() - start);
            }
            next();
          });
    } else {
      const SimTime start = sim.Now();
      session->Get(key, [this, next, start](Result<std::string> r) {
        if (r.ok()) {
          gets_done++;
          latency->Record(cluster->sim().Now() - start);
        }
        next();
      });
    }
  }
};

ReadPathResult RunReadPathCell(const ReadPathConfig& config) {
  ReadPathResult result;
  result.config = config;

  core::AuroraOptions options;
  options.seed = config.seed;
  options.blocks_per_pg = 1 << 16;
  // The working set (keys/64 leaves and the internal pages above them)
  // must dwarf the replica cache so Zipf tails evict and refetch.
  options.replica.cache_pages = 24;
  core::AuroraCluster cluster(options);
  if (!cluster.StartBlocking().ok()) return result;

  for (int i = 0; i < config.keys; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "c10-%05d", i);
    if (!cluster.PutBlocking(key, "seed").ok()) return result;
  }
  std::vector<replica::ReadReplica*> reps;
  for (size_t i = 0; i < config.replicas; ++i) {
    replica::ReadReplica* rep = cluster.AddReplica();
    if (rep == nullptr) break;  // kMaxReplicas
    reps.push_back(rep);
  }
  cluster.RunFor(100 * kMillisecond);  // replicas prime their VDL

  std::vector<std::unique_ptr<SessionLoop>> loops;
  const SimTime deadline = cluster.sim().Now() + config.window;
  for (int s = 0; s < config.sessions; ++s) {
    auto loop = std::make_unique<SessionLoop>();
    core::SessionOptions session_options;
    session_options.replica_offset = static_cast<size_t>(s);
    loop->session = std::make_unique<core::ClientSession>(
        &cluster, static_cast<AzId>(s % 3), session_options);
    loop->rng = Rng(config.seed * 100 + s);
    loop->zipf = ZipfianGenerator(config.keys, config.theta);
    loop->update_ratio = config.update_ratio;
    loop->scan_ratio = config.scan_ratio;
    loop->keys = config.keys;
    loop->deadline = deadline;
    loop->latency = &result.read_latency;
    loop->scan_latency = &result.scan_latency;
    loop->cluster = &cluster;
    SessionLoop* raw = loop.get();
    cluster.sim().Schedule(1 + s * 17, [raw] { raw->Pump(); });
    loops.push_back(std::move(loop));
  }

  // Lag sampler: every 2ms record each replica's VDL distance behind the
  // writer (in LSNs — the natural unit of the redo stream).
  struct LagSampler {
    core::AuroraCluster* cluster;
    std::vector<replica::ReadReplica*>* reps;
    Histogram* lag;
    SimTime deadline;
    void Tick() {
      if (cluster->sim().Now() >= deadline) return;
      const Lsn writer_vdl = cluster->writer()->vdl();
      for (replica::ReadReplica* rep : *reps) {
        const Lsn rep_vdl = rep->vdl();
        if (writer_vdl == kInvalidLsn || rep_vdl == kInvalidLsn) continue;
        lag->Record(writer_vdl >= rep_vdl
                        ? static_cast<SimDuration>(writer_vdl - rep_vdl)
                        : 0);
      }
      cluster->sim().Schedule(2 * kMillisecond, [this] { Tick(); });
    }
  };
  LagSampler sampler{&cluster, &reps, &result.replica_lag, deadline};
  sampler.Tick();

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.RunFor(config.window + 50 * kMillisecond);
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (result.wall_seconds <= 0) result.wall_seconds = 1e-9;

  for (const auto& loop : loops) {
    result.gets_done += loop->gets_done;
    result.puts_done += loop->puts_done;
    result.scans_done += loop->scans_done;
    result.replica_reads += loop->session->stats().replica_reads;
    result.writer_fallbacks += loop->session->stats().writer_fallbacks;
  }
  for (replica::ReadReplica* rep : reps) {
    result.anchor_waits += rep->stats().anchor_waits;
    result.storage_reads_issued += rep->driver()->stats().reads_issued;
    result.hedged_reads += rep->driver()->router().hedged_reads();
    const auto& cache_stats = rep->cache().stats();
    result.cache_hits += cache_stats.hits;
    result.cache_misses += cache_stats.misses;
    result.cache_evictions += cache_stats.evictions;
  }
  result.metrics_json = cluster.MetricsJson();
  return result;
}

}  // namespace
}  // namespace aurora

namespace {

// ------------------------------------------------------------------- //
// Microbenchmark: the Zipf generator itself (it sits on every simulated
// read issue path in this bench).

void BM_ZipfNext(benchmark::State& state) {
  aurora::ZipfianGenerator zipf(100000, 0.99);
  aurora::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfNext);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::BenchJson;
  using aurora::bench::Num;
  using aurora::bench::Table;

  bool quick = false;
  double scan_ratio = -1;  // <0: per-mode default (quick 0.15, full 0)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--scan-ratio=", 13) == 0) {
      scan_ratio = std::atof(argv[i] + 13);
    }
  }

  std::vector<aurora::ReadPathConfig> cells;
  if (quick) {
    aurora::ReadPathConfig config;
    config.replicas = 3;
    config.theta = 0.99;
    config.update_ratio = 0.1;
    // Scans on by default in the smoke cell so the anchor-wait assertion
    // below exercises the Scan route on every CTest run.
    config.scan_ratio = scan_ratio < 0 ? 0.15 : scan_ratio;
    config.keys = 600;
    config.window = 100 * aurora::kMillisecond;
    cells.push_back(config);
  } else {
    for (size_t replicas : {1u, 3u, 7u, 15u}) {
      for (double theta : {0.0, 0.99, 1.2}) {
        for (double update_ratio : {0.0, 0.2}) {
          aurora::ReadPathConfig config;
          config.replicas = replicas;
          config.theta = theta;
          config.update_ratio = update_ratio;
          config.scan_ratio = scan_ratio < 0 ? 0.0 : scan_ratio;
          cells.push_back(config);
        }
      }
    }
  }

  Table table(quick ? "C10: read path (quick cell)"
                    : "C10: read path — replicas x zipf x update sweep");
  table.Columns({"cell", "reads", "scans", "p50", "p99", "hit rate",
                 "hedge rate", "lag p50/p99 (lsns)", "fallbacks"});

  BenchJson json("c10_read_path");
  json.SetString("mode", quick ? "quick" : "full");

  std::vector<aurora::ReadPathResult> results;
  for (const auto& config : cells) {
    aurora::ReadPathResult r = aurora::RunReadPathCell(config);
    if (r.gets_done == 0) {
      std::fprintf(stderr, "C10: cell %s completed no reads\n",
                   config.Label().c_str());
      return 1;
    }
    if (r.CacheHitRate() >= 1.0) {
      std::fprintf(stderr,
                   "C10: cell %s never missed cache — the working set no "
                   "longer exercises eviction-driven storage reads\n",
                   config.Label().c_str());
      return 1;
    }
    if (config.scan_ratio > 0 && quick) {
      // Smoke contract for the Scan ablation: scans must actually run
      // AND at least one anchored replica read must have parked for a
      // VDL advance — proof the session-consistency wait path is being
      // exercised, not just the fast path.
      if (r.scans_done == 0) {
        std::fprintf(stderr, "C10: cell %s issued no scans at scan_ratio "
                     "%.2f\n", config.Label().c_str(), config.scan_ratio);
        return 1;
      }
      if (r.anchor_waits == 0) {
        std::fprintf(stderr,
                     "C10: cell %s never hit the anchor-wait path — "
                     "session reads are no longer parking on VDL\n",
                     config.Label().c_str());
        return 1;
      }
    }
    table.Row({config.Label(), std::to_string(r.gets_done),
               std::to_string(r.scans_done),
               aurora::bench::Us(r.read_latency.P50()),
               aurora::bench::Us(r.read_latency.P99()),
               Num(r.CacheHitRate(), 3), Num(r.HedgeRate(), 4),
               std::to_string(r.replica_lag.P50()) + " / " +
                   std::to_string(r.replica_lag.P99()),
               std::to_string(r.writer_fallbacks)});
    results.push_back(std::move(r));
  }
  table.Print();

  // Headline keys (the quick cell / first cell) feed the bench gate; the
  // full sweep lands per-cell under a label suffix.
  const aurora::ReadPathResult& head = results.front();
  json.Set("reads_done", head.gets_done)
      .Set("updates_done", head.puts_done)
      .Set("scans_done", head.scans_done)
      .Set("scan_p50_us", static_cast<uint64_t>(head.scan_latency.P50()))
      .Set("scan_p99_us", static_cast<uint64_t>(head.scan_latency.P99()))
      .Set("anchor_waits", head.anchor_waits)
      .Set("reads_per_sec", head.ReadsPerSec())
      .Set("read_p50_us", static_cast<uint64_t>(head.read_latency.P50()))
      .Set("read_p99_us", static_cast<uint64_t>(head.read_latency.P99()))
      .Set("cache_hit_rate", head.CacheHitRate())
      .Set("cache_evictions", head.cache_evictions)
      .Set("storage_reads_issued", head.storage_reads_issued)
      .Set("hedged_reads", head.hedged_reads)
      .Set("hedge_rate", head.HedgeRate())
      .Set("replica_reads", head.replica_reads)
      .Set("writer_fallbacks", head.writer_fallbacks)
      .Set("lag_p50_lsns", static_cast<uint64_t>(head.replica_lag.P50()))
      .Set("lag_p99_lsns", static_cast<uint64_t>(head.replica_lag.P99()))
      .Set("wall_seconds", head.wall_seconds);
  if (!quick) {
    for (const auto& r : results) {
      const std::string suffix = "_" + r.config.Label();
      json.Set("reads_done" + suffix, r.gets_done)
          .Set("read_p50_us" + suffix,
               static_cast<uint64_t>(r.read_latency.P50()))
          .Set("read_p99_us" + suffix,
               static_cast<uint64_t>(r.read_latency.P99()))
          .Set("cache_hit_rate" + suffix, r.CacheHitRate())
          .Set("hedge_rate" + suffix, r.HedgeRate())
          .Set("lag_p99_lsns" + suffix,
               static_cast<uint64_t>(r.replica_lag.P99()));
    }
  }
  json.SetRaw("metrics", head.metrics_json);
  if (!json.WriteFile()) return 1;

  if (!quick) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
