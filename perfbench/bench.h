// The repository benchmark: three workloads driven through the public
// AuroraCluster / ClientSession / DbInstance API, every protocol option at
// its library default. The benchmark chooses only deployment shape
// (volumes, PGs, replicas, cache pages, nodes per AZ) and the client load.
//
// One "rep" builds a fresh cluster from a seed, sets it up (start, preload,
// warm-up), runs the measured window, checks the outputs, and returns raw
// counters. Reps are pooled into metrics by report.cc; main.cc decides how
// many reps fit the run. See perfbench/README.md for the metric catalogue.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"

namespace perfbench {

using Samples = std::vector<int64_t>;

enum class Workload { kWriteCommit, kSessionRead, kFleetRepair };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// Distinct sub-seeds ("slots") a run of `workload` cycles through; the
/// first rep of every slot is pooled into the deterministic (simulated
/// time, count, and bytes) metrics.
int SeedSlots(Workload workload);

struct RepConfig {
  Workload workload = Workload::kWriteCommit;
  uint64_t seed = 1;
  /// Traced reps time every executed event through the simulator's
  /// post-event inspector and the benchmark's own API calls.
  bool traced = false;
  /// Multiplies the measured window (the self-test runs shortened reps).
  double window_scale = 1.0;
};

/// Raw outcome of one rep. Counters are exact and deterministic in the
/// seed; the wall-clock fields are not.
struct RepResult {
  uint64_t fingerprint = 0;
  double setup_wall_s = 0;
  double window_wall_s = 0;
  /// Mean wall time of the host calibration bursts timed around and during
  /// the window (HostCalibrationBurstSeconds).
  double calibration_s = 0;

  /// Named exact counters (see report.cc for how they combine).
  std::map<std::string, double> counts;
  /// Named simulated-time histograms of layer latencies (microseconds).
  std::map<std::string, aurora::Histogram> hists;
  /// Client-visible latencies (simulated microseconds), kept raw so their
  /// percentiles are exact order statistics.
  std::map<std::string, Samples> samples;
  /// Output-check mismatches by check name (all zero on a correct run).
  std::map<std::string, uint64_t> mismatches;
  /// Wall-clock measurements of traced reps (nanoseconds and call counts).
  std::map<std::string, double> wall;
};

/// Runs one rep. Never throws; setup failures surface as mismatches.
RepResult RunRep(const RepConfig& config);

/// Wall seconds of one burst of fixed, program-independent work of the kind
/// the simulator does (small allocations, ordered-map inserts and lookups).
/// Timed throughout every window, it measures how fast the shared host is
/// running at that moment.
double HostCalibrationBurstSeconds();
/// Burst time of the reference host that the wall-clock metrics are scaled
/// to (roughly the fastest burst time seen on a 2 GHz x86 VM).
inline constexpr double kReferenceCalibrationS = 0.00125;

/// Sub-seed of rep slot `index` for run seed `seed`.
uint64_t SubSeed(uint64_t seed, int index);

/// True when two reps of one seed agree on every deterministic output:
/// schedule fingerprint, counters, histograms, and check results.
bool SameDeterministicOutputs(const RepResult& a, const RepResult& b);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Reps of one run, grouped by sub-seed slot: reps[k][0] is slot k's
/// canonical rep; later entries repeat it for more wall-clock samples.
using RepsBySeed = std::vector<std::vector<RepResult>>;

/// End-to-end metrics of untraced reps (see README.md).
std::vector<Metric> EndToEndMetrics(const RepsBySeed& untraced,
                                    double peak_rss_mb);
/// Per-layer metrics: counts from the untraced canonical reps, wall
/// shares and call timings from the traced reps.
std::vector<Metric> PerLayerMetrics(const RepsBySeed& untraced,
                                    const RepsBySeed& traced);

/// Every output check by name, with its mismatch count over all reps
/// (names with no mismatch are listed with 0).
std::map<std::string, uint64_t> CheckTotals(const RepsBySeed& reps);

/// True for checks that expose a known defect of the program: reported,
/// but not counted as failed (see README.md, "Known defects").
bool IsKnownDefect(const std::string& check);

}  // namespace perfbench
