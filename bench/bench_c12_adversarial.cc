// Experiment C12 — adversarial corruption campaign (DESIGN.md §6, §8).
//
// The paper's storage nodes continuously scrub stored records (§2.1,
// activity 8): a checksum mismatch quarantines the record — drops it from
// the hot log before any read can observe it — and peer gossip refills
// the hole from the 4/6 quorum. This bench measures that machinery under
// sustained adversarial schedules: randomized chaos runs whose fault mix
// includes record corruption (plus crashes, partitions, AZ blips), in two
// arms:
//
//   * baseline arm — `GenerateChaosSchedule` under the invariant auditor
//     and the end-of-run durability contract. Scrub quarantines corrupt
//     records; nobody replaces the damaged segment.
//   * campaign arm — `GenerateCampaignSchedule` with the self-healing
//     control plane running (health monitor + repair planner), so
//     quarantined state is additionally repaired by gossip refill and
//     segment replacement, and the volume must re-converge.
//
// Every run must end green: an audit violation, durability breach, or
// failed campaign convergence exits nonzero — this binary doubles as the
// adversarial smoke test under CTest.
//
// NOTE: this is a from-scratch recreation of the original C12 binary
// (only its JSON dump survived; it is committed as the gate baseline in
// bench/baselines/). Counter semantics, recreated:
//   corruptions_injected   corrupt-record ops across all schedules
//   corruptions_detected   scrub checksum mismatches (both arms; records
//                          lost to crashes/GC before a scrub pass are
//                          injected-but-never-detected)
//   scrub_quarantined      records scrub dropped in the baseline arm
//   scrub_repaired         gossip refills in the campaign arm
// The gate floors events_per_sec only — counts vary with seed set.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/chaos_harness.h"

namespace aurora {
namespace {

struct ArmTotals {
  uint64_t events = 0;
  uint64_t injected = 0;
  /// Corrupt records scrub dropped / records gossip refilled, summed
  /// over the runs' segment stores.
  uint64_t scrub_corruptions = 0;
  uint64_t gossip_filled = 0;
  double wall_seconds = 0;

  double EventsPerSec() const {
    return wall_seconds <= 0 ? 0 : static_cast<double>(events) / wall_seconds;
  }
};

uint64_t CountCorruptOps(const core::ChaosSchedule& schedule) {
  uint64_t n = 0;
  for (const auto& op : schedule.ops) {
    if (op.kind == core::ChaosOpKind::kCorruptRecord) ++n;
  }
  return n;
}

// Runs one arm across the seed sweep; returns false (after printing the
// failure) if any run breaks its contracts.
bool RunArm(bool campaign, int seeds, int ops_per_seed, ArmTotals* totals) {
  for (int seed = 1; seed <= seeds; ++seed) {
    const core::ChaosSchedule schedule =
        campaign ? core::GenerateCampaignSchedule(seed, ops_per_seed)
                 : core::GenerateChaosSchedule(seed, ops_per_seed);
    totals->injected += CountCorruptOps(schedule);
    core::ChaosRunOptions options;
    options.campaign = campaign;
    // Adversarial cadence: a schedule lasts well under a second of
    // virtual time, so the default 30s scrub would never fire. 100ms
    // gives several scrub passes per run plus the end-of-run drain.
    options.storage_node.scrub_interval = 100 * kMillisecond;
    const auto start = std::chrono::steady_clock::now();
    const core::ChaosRunResult result =
        core::RunChaosSchedule(schedule, options);
    const auto end = std::chrono::steady_clock::now();
    totals->events += result.executed_events;
    totals->scrub_corruptions += result.scrub_corruptions;
    totals->gossip_filled += result.gossip_filled_records;
    totals->wall_seconds += std::chrono::duration<double>(end - start).count();
    if (!result.ok()) {
      std::fprintf(stderr, "C12: FAILED — %s arm, seed %d: %s\n",
                   campaign ? "campaign" : "baseline", seed,
                   !result.status.ok() ? result.status.ToString().c_str()
                   : !result.violations.empty()
                       ? result.violations.front().invariant.c_str()
                       : !result.errors.empty() ? result.errors.front().c_str()
                                                : "replay divergence");
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace aurora

int main(int argc, char** argv) {
  using aurora::bench::BenchJson;
  using aurora::bench::Num;
  using aurora::bench::Table;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int seeds = quick ? 4 : 10;
  const int ops_per_seed = 40;

  // Baseline arm: scrub quarantines, nothing repairs.
  aurora::ArmTotals baseline;
  if (!aurora::RunArm(/*campaign=*/false, seeds, ops_per_seed, &baseline)) {
    return 1;
  }

  // Campaign arm: the control plane heals what the adversary breaks.
  aurora::ArmTotals campaign;
  if (!aurora::RunArm(/*campaign=*/true, seeds, ops_per_seed, &campaign)) {
    return 1;
  }
  const uint64_t quarantined = baseline.scrub_corruptions;
  const uint64_t detected =
      baseline.scrub_corruptions + campaign.scrub_corruptions;
  const uint64_t repaired = campaign.gossip_filled;

  Table table("C12: adversarial corruption campaign");
  table.Columns({"arm", "seeds", "events", "wall", "events/sec"});
  table.Row({"baseline", std::to_string(seeds),
             std::to_string(baseline.events), Num(baseline.wall_seconds, 3),
             Num(baseline.EventsPerSec(), 0)});
  table.Row({"campaign", std::to_string(seeds),
             std::to_string(campaign.events), Num(campaign.wall_seconds, 3),
             Num(campaign.EventsPerSec(), 0)});
  table.Print();
  std::printf(
      "\nC12: ok — %llu corruptions injected, %llu detected by scrub, "
      "%llu quarantined (baseline), %llu gossip-repaired (campaign)\n",
      static_cast<unsigned long long>(baseline.injected + campaign.injected),
      static_cast<unsigned long long>(detected),
      static_cast<unsigned long long>(quarantined),
      static_cast<unsigned long long>(repaired));

  BenchJson json("c12_adversarial");
  json.SetString("mode", quick ? "quick" : "full")
      .Set("seeds", static_cast<uint64_t>(seeds))
      .Set("ops_per_seed", static_cast<uint64_t>(ops_per_seed))
      .Set("events_total", baseline.events)
      .Set("wall_seconds", baseline.wall_seconds)
      .Set("events_per_sec", baseline.EventsPerSec())
      .Set("control_events_per_sec", campaign.EventsPerSec())
      .Set("corruptions_injected", baseline.injected + campaign.injected)
      .Set("corruptions_detected", detected)
      .Set("scrub_quarantined", quarantined)
      .Set("scrub_repaired", repaired);
  if (!json.WriteFile()) return 1;
  return 0;
}
