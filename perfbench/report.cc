// Pools reps into the named metrics printed by the benchmark.
//
// Deterministic metrics (simulated time, counts, bytes) pool the canonical
// rep of every sub-seed slot: sums of numerators over sums of
// denominators, merged histograms, concatenated latency samples. Wall-clock
// metrics take the median over every rep (slots differ in work by a few
// percent; host noise is larger).

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "layer_trace.h"

namespace perfbench {

namespace {

/// Checks every rep can report; listed by name even when they never fire.
const char* const kCheckNames[] = {
    "cluster_start_failed",
    "preload_failed",
    "replica_catch_up_failed",
    "commit_failed",
    "readback_not_last_acked",
    "readback_error",
    "readback_timeout",
    "readback_reopen_failed",
    "session_read_malformed",
    "session_get_failed",
    "session_scan_failed",
    "session_put_failed",
    "repair_incomplete",
    "repair_regressed",
    "determinism_replay",
    "determinism_traced",
};

/// Checks that expose a defect of the program at the commit that defined
/// this benchmark. They are reported by name and as metrics but do not
/// fail the run; the change that fixes one moves it to kCheckNames.
const char* const kKnownDefectNames[] = {
    "session_read_older_than_own_write",
    "readback_lost_after_reopen",
    "readback_error_after_reopen",
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Canonical reps pooled: summed counters, merged histograms and samples.
struct Pool {
  std::map<std::string, double> counts;
  std::map<std::string, aurora::Histogram> hists;
  std::map<std::string, Samples> samples;

  explicit Pool(const RepsBySeed& reps) {
    for (const auto& slot : reps) {
      if (slot.empty()) continue;
      const RepResult& r = slot.front();
      for (const auto& [k, v] : r.counts) counts[k] += v;
      for (const auto& [k, h] : r.hists) hists[k].Merge(h);
      for (const auto& [k, v] : r.mismatches) counts["check." + k] += v;
      for (const auto& [k, v] : r.samples) {
        samples[k].insert(samples[k].end(), v.begin(), v.end());
      }
    }
    for (auto& [k, v] : samples) std::sort(v.begin(), v.end());
  }
  double C(const std::string& name) const {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  }
  double P(const std::string& name, double q) const {
    auto it = hists.find(name);
    return it == hists.end() ? 0.0
                             : static_cast<double>(it->second.Percentile(q));
  }
  /// Exact quantile (nearest rank) of raw client-latency samples.
  double Q(const std::string& name, double q) const {
    auto it = samples.find(name);
    if (it == samples.end() || it->second.empty()) return 0.0;
    const auto& v = it->second;
    const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    return static_cast<double>(v[std::clamp<size_t>(rank, 1, v.size()) - 1]);
  }
  double N(const std::string& name) const {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : static_cast<double>(it->second.size());
  }
};

/// Median over every rep of `field`.
template <typename F>
double MedianOverReps(const RepsBySeed& reps, F field) {
  std::vector<double> v;
  for (const auto& slot : reps) {
    for (const auto& r : slot) v.push_back(field(r));
  }
  return Median(v);
}

double WindowOpsPerWallS(const RepResult& r) {
  auto it = r.counts.find("window_ops_ok");
  return it == r.counts.end() ? 0.0 : Ratio(it->second, r.window_wall_s);
}

/// How much faster the reference host runs than this rep's host did: a
/// host that runs the calibration bursts 20% slower is taken to run the
/// rep 20% slower. Wall-clock metrics are scaled by it, so that the shared
/// host's drift does not read as a change of the program.
double HostScale(const RepResult& r) {
  return Ratio(r.calibration_s, kReferenceCalibrationS);
}

double HostScaledOpsPerWallS(const RepResult& r) {
  return WindowOpsPerWallS(r) * HostScale(r);
}

/// Σ over every rep of a wall-clock field.
double SumWall(const RepsBySeed& reps, const std::string& name) {
  double total = 0;
  for (const auto& slot : reps) {
    for (const auto& r : slot) {
      if (auto it = r.wall.find(name); it != r.wall.end()) total += it->second;
    }
  }
  return total;
}

}  // namespace

bool SameDeterministicOutputs(const RepResult& a, const RepResult& b) {
  if (a.fingerprint != b.fingerprint || a.counts != b.counts ||
      a.mismatches != b.mismatches || a.samples != b.samples ||
      a.hists.size() != b.hists.size()) {
    return false;
  }
  for (const auto& [name, h] : a.hists) {
    auto it = b.hists.find(name);
    if (it == b.hists.end() || it->second.count() != h.count() ||
        it->second.max() != h.max() || it->second.P50() != h.P50() ||
        it->second.P999() != h.P999()) {
      return false;
    }
  }
  return true;
}

std::vector<Metric> EndToEndMetrics(const RepsBySeed& untraced,
                                    double peak_rss_mb) {
  const Pool pool(untraced);
  return {
      {"setup_s",
       MedianOverReps(untraced,
                      [](const RepResult& r) {
                        return Ratio(r.setup_wall_s, HostScale(r));
                      }),
       "s"},
      {"ops_per_wall_s", MedianOverReps(untraced, HostScaledOpsPerWallS),
       "1/s"},
      {"op_p50_sim_us", pool.Q("op", 0.50), "sim_us"},
      {"op_p999_sim_us", pool.Q("op", 0.999), "sim_us"},
      {"wire_bytes_per_op",
       Ratio(pool.C("window_bytes"), pool.C("window_ops_ok")), "B/op"},
      {"stored_bytes_per_user_byte",
       Ratio(pool.C("footprint_ratio_sum"), pool.C("footprint_samples")),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const RepsBySeed& untraced,
                                    const RepsBySeed& traced) {
  const Pool p(untraced);
  // Traced and untraced reps pair up one to one (same sub-seed).
  double untraced_wall = 0;
  double traced_wall = 0;
  for (size_t k = 0; k < traced.size(); ++k) {
    for (size_t i = 0; i < traced[k].size(); ++i) {
      untraced_wall += untraced[k][i].window_wall_s;
      traced_wall += traced[k][i].window_wall_s;
    }
  }
  const double traced_ns = SumWall(traced, "traced_window_ns");
  auto share = [&](const std::string& name) {
    return Ratio(SumWall(traced, name), traced_ns);
  };
  double attributed_ns = SumWall(traced, "unattributed_ns");
  for (int l = 0; l < kLayerCount; ++l) {
    attributed_ns += SumWall(traced, std::string("layer_ns.") + LayerName(l));
  }
  const double reads = p.C("reads_ok");
  const double commits = p.C("db_commits");
  const double received = p.C("seg_received");

  return {
      // Client-visible results by operation type (end-to-end metrics that
      // exist on only some workloads; 0 where the workload has none).
      {"commit_p50_sim_us", p.Q("commit", 0.50), "sim_us"},
      {"commit_p999_sim_us", p.Q("commit", 0.999), "sim_us"},
      {"commit_samples", p.N("commit"), "count"},
      {"read_p50_sim_us", p.Q("read", 0.50), "sim_us"},
      {"read_p999_sim_us", p.Q("read", 0.999), "sim_us"},
      {"read_samples", p.N("read"), "count"},
      {"op_samples", p.N("op"), "count"},
      {"failed_op_ratio",
       Ratio(p.C("ops_failed"), p.C("ops_issued")), "ratio"},
      {"stale_own_reads", p.C("check.session_read_older_than_own_write"),
       "count"},
      {"acked_rows_lost_after_reopen",
       p.C("check.readback_lost_after_reopen") +
           p.C("check.readback_error_after_reopen"),
       "count"},
      {"raw_ops_per_wall_s", MedianOverReps(untraced, WindowOpsPerWallS),
       "1/s"},
      {"raw_setup_s",
       MedianOverReps(untraced,
                      [](const RepResult& r) { return r.setup_wall_s; }),
       "s"},
      {"host_calibration_s",
       MedianOverReps(untraced,
                      [](const RepResult& r) { return r.calibration_s; }),
       "s"},
      {"redundancy_restore_sim_s",
       Ratio(p.C("restore_sim_us") / 1e6, p.C("restores")), "sim_s"},
      // sim
      {"sim.events_per_op", Ratio(p.C("window_events"), p.C("window_ops_ok")),
       "count"},
      {"sim.messages_per_op",
       Ratio(p.C("window_messages"), p.C("window_ops_ok")), "count"},
      {"sim.wall_ns_per_event",
       MedianOverReps(untraced,
                      [](const RepResult& r) {
                        auto it = r.counts.find("window_events");
                        return it == r.counts.end()
                                   ? 0.0
                                   : Ratio(r.window_wall_s * 1e9, it->second);
                      }),
       "ns"},
      {"sim.dropped_messages", p.C("window_dropped"), "count"},
      // engine
      {"engine.wall_share", share("layer_ns.engine"), "ratio"},
      {"engine.put_call_wall_ns",
       Ratio(SumWall(traced, "put_call_ns"), SumWall(traced, "put_calls")),
       "ns"},
      {"engine.records_per_commit", Ratio(p.C("drv_records"), commits),
       "count"},
      {"engine.records_per_write_request",
       Ratio(p.C("drv_records"), p.C("drv_write_requests")), "count"},
      {"engine.advance_passes_per_commit",
       Ratio(p.C("drv_advance_passes"), commits), "count"},
      {"engine.retransmit_ratio",
       Ratio(p.C("drv_retransmissions"), p.C("drv_records")), "ratio"},
      {"engine.write_ack_p50_sim_us", p.P("write_ack", 0.50), "sim_us"},
      {"engine.write_ack_p99_sim_us", p.P("write_ack", 0.99), "sim_us"},
      {"engine.commit_wait_p50_sim_us", p.P("commit_wait", 0.50), "sim_us"},
      {"engine.cache_hit_rate",
       Ratio(p.C("cache_hits"), p.C("cache_hits") + p.C("cache_misses")),
       "ratio"},
      {"engine.stale_epoch_acks", p.C("drv_stale_epoch_acks"), "count"},
      {"engine.fenced_writers", p.C("fenced_writers"), "count"},
      {"engine.storage_reads_per_read", Ratio(p.C("drv_reads"), reads),
       "count"},
      {"engine.hedge_ratio", Ratio(p.C("drv_hedged"), p.C("drv_reads")),
       "ratio"},
      {"engine.storage_read_p99_sim_us", p.P("storage_read", 0.99),
       "sim_us"},
      // txn
      {"txn.aborts_per_op", Ratio(p.C("db_aborts"), p.C("ops_issued")),
       "ratio"},
      // storage
      {"storage.wall_share", share("layer_ns.storage"), "ratio"},
      {"storage.coalesced_per_record", Ratio(p.C("seg_coalesced"), received),
       "ratio"},
      {"storage.duplicate_ratio", Ratio(p.C("seg_duplicate"), received),
       "ratio"},
      {"storage.gossip_filled_records", p.C("seg_gossip_filled"), "count"},
      {"storage.disk_ops_per_commit", Ratio(p.C("disk_ops"), commits),
       "count"},
      {"storage.disk_op_p99_sim_us", p.P("disk_op", 0.99), "sim_us"},
      {"storage.version_bytes_per_user_byte",
       Ratio(p.C("version_bytes"), p.C("user_bytes")), "ratio"},
      {"storage.hot_log_bytes_per_user_byte",
       Ratio(p.C("hot_log_bytes"), p.C("user_bytes")), "ratio"},
      {"storage.gced_versions_per_record",
       Ratio(p.C("seg_versions_gced"), received), "ratio"},
      {"storage.reads_served_per_read", Ratio(p.C("seg_reads_served"), reads),
       "count"},
      // replica
      {"replica.wall_share", share("layer_ns.replica"), "ratio"},
      {"replica.records_applied_per_commit",
       Ratio(p.C("rep_applied"), commits), "count"},
      {"replica.discarded_uncached_ratio",
       Ratio(p.C("rep_discarded"), p.C("rep_applied") + p.C("rep_discarded")),
       "ratio"},
      {"replica.cache_hit_rate",
       Ratio(p.C("rep_cache_hits"),
             p.C("rep_cache_hits") + p.C("rep_cache_misses")),
       "ratio"},
      {"replica.anchor_waits_per_read", Ratio(p.C("rep_anchor_waits"), reads),
       "count"},
      {"replica.stream_lag_p99_sim_us", p.P("replica_lag", 0.99), "sim_us"},
      // core
      {"core.wall_share", share("layer_ns.core"), "ratio"},
      {"core.session_call_wall_ns",
       Ratio(SumWall(traced, "session_call_ns"),
             SumWall(traced, "session_calls")),
       "ns"},
      {"core.health_probes_per_sim_s",
       Ratio(p.C("window_health_probes"), p.C("window_sim_us") / 1e6),
       "1/sim_s"},
      {"core.writer_fallback_ratio",
       Ratio(p.C("sess_fallbacks"), p.C("sess_reads")), "ratio"},
      {"core.repairs_committed", p.C("repairs_committed"), "count"},
      {"core.repair_revert_ratio",
       Ratio(p.C("repairs_reverted"),
             p.C("repairs_committed") + p.C("repairs_reverted")),
       "ratio"},
      {"core.repair_mttr_p50_sim_us", p.P("repair_mttr", 0.50), "sim_us"},
      // trace: coverage and cost of the traced run itself
      {"unattributed_wall_share", share("unattributed_ns"), "ratio"},
      {"trace_overhead_ratio", Ratio(traced_wall, untraced_wall), "ratio"},
      {"trace.attributed_wall_s", attributed_ns / 1e9, "s"},
      {"trace.window_wall_s", traced_ns / 1e9, "s"},
  };
}

bool IsKnownDefect(const std::string& check) {
  for (const char* name : kKnownDefectNames) {
    if (check == name) return true;
  }
  return false;
}

std::map<std::string, uint64_t> CheckTotals(const RepsBySeed& reps) {
  std::map<std::string, uint64_t> totals;
  for (const char* name : kCheckNames) totals[name] = 0;
  for (const char* name : kKnownDefectNames) totals[name] = 0;
  for (const auto& slot : reps) {
    for (const auto& r : slot) {
      for (const auto& [name, n] : r.mismatches) totals[name] += n;
    }
  }
  return totals;
}

}  // namespace perfbench
