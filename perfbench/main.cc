// Benchmark entry point.
//
//   perfbench --workload <write_commit|session_read|fleet_repair>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs reps of the workload until --seconds of wall time have passed (at
// least one rep per sub-seed slot), checks every rep's outputs, and prints
// a human-readable summary followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 pairs every rep of
// the first five slots with a traced rep of the same seed and reports the
// per-layer metrics.

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bench.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTracedSlots = 5;

struct Args {
  std::optional<perfbench::Workload> workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = perfbench::ParseWorkload(value);
      if (!args->workload) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload.has_value() && args->seconds > 0;
}

/// Shortest round-trip decimal form of a double.
std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<write_commit|session_read|fleet_repair> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const perfbench::Workload workload = *args.workload;
  const int slots = perfbench::SeedSlots(workload);

  perfbench::RepsBySeed untraced(slots);
  perfbench::RepsBySeed traced(args.trace ? slots : 0);
  const auto start = Clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  int reps = 0;
  for (;; ++reps) {
    const int slot = reps % slots;
    perfbench::RepConfig config;
    config.workload = workload;
    config.seed = perfbench::SubSeed(args.seed, slot);
    perfbench::RepResult rep = perfbench::RunRep(config);
    if (!untraced[slot].empty() &&
        !perfbench::SameDeterministicOutputs(untraced[slot].front(), rep)) {
      rep.mismatches["determinism_replay"]++;
    }
    // Traced twins of the first kTracedSlots slots only: a traced fleet_repair
    // rep runs ~2.6x slower, and a run must stay within its time limit.
    if (args.trace && slot < kTracedSlots) {
      config.traced = true;
      perfbench::RepResult t = perfbench::RunRep(config);
      if (!perfbench::SameDeterministicOutputs(rep, t)) {
        t.mismatches["determinism_traced"]++;
      }
      traced[slot].push_back(std::move(t));
    }
    untraced[slot].push_back(std::move(rep));
    // Stop once every slot ran and the budget is spent, or when one more
    // rep would overshoot the budget by more than half a rep.
    const double per_rep = elapsed() / (reps + 1);
    if (reps + 1 >= slots && elapsed() + per_rep / 2 >= args.seconds) break;
  }
  ++reps;

  auto checks = perfbench::CheckTotals(untraced);
  for (const auto& [name, n] : perfbench::CheckTotals(traced)) {
    checks[name] += n;
  }
  uint64_t failed = 0;
  for (const auto& [name, n] : checks) {
    if (!perfbench::IsKnownDefect(name)) failed += n;
  }
  uint64_t attempted = 0;
  for (const auto& slot : untraced) {
    for (const auto& r : slot) {
      auto count = [&r](const char* name) {
        auto it = r.counts.find(name);
        return it == r.counts.end() ? 0.0 : it->second;
      };
      attempted += static_cast<uint64_t>(count("ops_issued") + count("checks"));
    }
  }
  if (attempted == 0) attempted = 1;

  const auto metrics =
      args.trace ? perfbench::PerLayerMetrics(untraced, traced)
                 : perfbench::EndToEndMetrics(untraced, PeakRssMb());

  std::printf("perfbench workload=%s seed=%llu reps=%d seed_slots=%d "
              "trace=%d wall_s=%.2f\n",
              perfbench::WorkloadName(workload),
              static_cast<unsigned long long>(args.seed), reps, slots,
              args.trace ? 1 : 0, elapsed());
  std::printf("checks:");
  for (const auto& [name, n] : checks) {
    std::printf(" %s%s=%llu", perfbench::IsKnownDefect(name) ? "known_defect:" : "",
                name.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  for (const auto& m : metrics) {
    std::printf("  %-40s %16s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
