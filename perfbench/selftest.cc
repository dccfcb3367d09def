// Determinism guard for the benchmark itself.
//
// For every workload, on shortened windows:
//  * two untraced reps of one seed agree on every deterministic output
//    (fingerprint, every counter, histogram, and check result);
//  * a traced rep of that seed ends with the same schedule fingerprint and
//    outputs, so the post-event inspector does not perturb the run;
//  * a held-out seed, never used to tune anything, runs clean.
// Exits 0 when every case passes.

#include <cstdio>

#include "bench.h"

namespace {

constexpr uint64_t kTunedSeed = 1;
constexpr uint64_t kHeldOutSeed = 977;
constexpr double kWindowScale = 0.25;

int failures = 0;

void Expect(bool ok, const char* workload, const char* what) {
  std::printf("[%s] %s: %s\n", ok ? " ok " : "FAIL", workload, what);
  if (!ok) ++failures;
}

/// True when no check failed; known defects are printed, not failed.
bool Clean(const perfbench::RepResult& r) {
  bool clean = true;
  for (const auto& [name, n] : r.mismatches) {
    if (n == 0) continue;
    const bool known = perfbench::IsKnownDefect(name);
    std::printf("    %s %s = %llu\n", known ? "known defect" : "check",
                name.c_str(), static_cast<unsigned long long>(n));
    clean = clean && known;
  }
  return clean;
}

}  // namespace

int main() {
  for (auto w : {perfbench::Workload::kWriteCommit,
                 perfbench::Workload::kSessionRead,
                 perfbench::Workload::kFleetRepair}) {
    const char* name = perfbench::WorkloadName(w);
    perfbench::RepConfig config;
    config.workload = w;
    config.window_scale = kWindowScale;
    config.seed = perfbench::SubSeed(kTunedSeed, 0);

    const perfbench::RepResult a = perfbench::RunRep(config);
    const perfbench::RepResult b = perfbench::RunRep(config);
    config.traced = true;
    const perfbench::RepResult t = perfbench::RunRep(config);

    Expect(Clean(a), name, "tuned seed passes every output check");
    Expect(perfbench::SameDeterministicOutputs(a, b), name,
           "same seed twice gives identical deterministic outputs");
    Expect(a.fingerprint == t.fingerprint, name,
           "traced and untraced schedule fingerprints match");
    Expect(perfbench::SameDeterministicOutputs(a, t), name,
           "tracing changes no deterministic output");

    config.traced = false;
    config.seed = perfbench::SubSeed(kHeldOutSeed, 0);
    Expect(Clean(perfbench::RunRep(config)), name,
           "held-out seed passes every output check");
  }
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
