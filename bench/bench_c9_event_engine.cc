// Experiment C9 — event-engine hot-loop throughput.
//
// Every protocol action in this reproduction — quorum writes, gossip,
// boxcar dispatch, retry timers, replica catch-up — is a simulator event,
// so the engine's schedule/cancel/fire loop is the floor under every other
// wall-clock number (C7 in particular). This bench measures the engine in
// isolation across the mixes the protocol actually generates:
//
//   * fire        — schedule bursts at jittered future times, drain.
//                   Pure slab-alloc + heap + dispatch cost.
//   * cancel_mix  — the retry-timer pattern: most events are armed and
//                   disarmed without firing (90% cancel rate). Exercises
//                   O(1) Cancel, tombstone pruning, and heap compaction.
//   * ladder      — K self-rescheduling chains (tick pattern): steady
//                   small heap, maximal schedule/fire alternation.
//   * spill       — large captures (past the inline SBO budget) taking
//                   the closure-pool path.
//
// Results go to BENCH_c9_event_engine.json; scripts/bench_gate.sh compares
// events_per_sec and cancel_mix_ops_per_sec against the committed
// baseline. `--quick` shrinks the workloads for the CTest smoke run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/sim/simulator.h"

namespace aurora {
namespace {

struct MixResult {
  uint64_t scheduled = 0;
  uint64_t cancelled = 0;
  uint64_t executed = 0;
  double wall_seconds = 0;

  // Scheduler operations (Schedule + Cancel + fire) per wall second — the
  // engine-facing rate, robust to the cancel share of the mix.
  double OpsPerSec() const {
    return static_cast<double>(scheduled + cancelled + executed) /
           wall_seconds;
  }
  double EventsPerSec() const {
    return static_cast<double>(executed) / wall_seconds;
  }
};

template <typename Body>
MixResult Timed(Body body) {
  MixResult result;
  const auto start = std::chrono::steady_clock::now();
  body(result);
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  if (result.wall_seconds <= 0) result.wall_seconds = 1e-9;
  return result;
}

/// Bursts of events at jittered future offsets, drained to empty.
MixResult RunFireMix(uint64_t total_events) {
  return Timed([&](MixResult& r) {
    sim::Simulator sim(7);
    Rng rng(11);
    volatile uint64_t sink = 0;
    const uint64_t burst = 4096;
    uint64_t remaining = total_events;
    while (remaining > 0) {
      const uint64_t n = remaining < burst ? remaining : burst;
      for (uint64_t i = 0; i < n; ++i) {
        const SimDuration delay = rng.NextInRange(1, 5000);
        sim.Schedule(delay, [&sink]() { sink = sink + 1; }, "bench.fire");
      }
      r.scheduled += n;
      sim.Run();
      remaining -= n;
    }
    r.executed = sim.ExecutedEvents();
  });
}

/// The retry-timer pattern: arm ten, fire one, disarm nine.
MixResult RunCancelMix(uint64_t total_events) {
  return Timed([&](MixResult& r) {
    sim::Simulator sim(7);
    Rng rng(13);
    volatile uint64_t sink = 0;
    std::vector<sim::EventId> armed;
    const uint64_t rounds = total_events / 10;
    for (uint64_t round = 0; round < rounds; ++round) {
      armed.clear();
      for (int i = 0; i < 10; ++i) {
        const SimDuration delay = rng.NextInRange(1, 2000);
        armed.push_back(
            sim.Schedule(delay, [&sink]() { sink = sink + 1; },
                         "bench.timer"));
      }
      r.scheduled += 10;
      // Keep one live (the "timeout that actually fires"), disarm the
      // rest — the overwhelmingly common fate of protocol timers.
      for (size_t i = 1; i < armed.size(); ++i) sim.Cancel(armed[i]);
      r.cancelled += armed.size() - 1;
      if (round % 64 == 63) sim.Run();  // periodic drain keeps heap honest
    }
    sim.Run();
    r.executed = sim.ExecutedEvents();
  });
}

/// K self-rescheduling tick chains, T ticks each: minimal heap, maximal
/// schedule/fire alternation (the steady-state shape of a healthy fleet).
MixResult RunLadderMix(uint64_t chains, uint64_t ticks) {
  return Timed([&](MixResult& r) {
    sim::Simulator sim(7);
    uint64_t live = 0;
    struct Chain {
      sim::Simulator* sim;
      uint64_t left;
      SimDuration period;
      uint64_t* counter;
      void Tick() {
        ++*counter;
        if (--left == 0) return;
        sim->Schedule(period, [this]() { Tick(); }, "bench.tick");
      }
    };
    std::vector<Chain> state(chains);
    for (uint64_t c = 0; c < chains; ++c) {
      state[c] = Chain{&sim, ticks, static_cast<SimDuration>(10 + c % 17),
                       &live};
      Chain* chain = &state[c];
      sim.Schedule(chain->period, [chain]() { chain->Tick(); },
                   "bench.tick");
    }
    sim.Run();
    r.scheduled = chains * ticks;
    r.executed = sim.ExecutedEvents();
  });
}

/// Large captures spill to the closure pool; measures alloc/free reuse.
MixResult RunSpillMix(uint64_t total_events) {
  return Timed([&](MixResult& r) {
    sim::Simulator sim(7);
    Rng rng(17);
    volatile uint64_t sink = 0;
    struct BigCapture {
      uint64_t payload[40];  // 320 bytes — past the inline SBO budget
    };
    const uint64_t burst = 2048;
    uint64_t remaining = total_events;
    while (remaining > 0) {
      const uint64_t n = remaining < burst ? remaining : burst;
      for (uint64_t i = 0; i < n; ++i) {
        BigCapture big;
        for (uint64_t& v : big.payload) v = i;
        const SimDuration delay = rng.NextInRange(1, 3000);
        sim.Schedule(delay,
                     [big, &sink]() { sink = sink + big.payload[0]; },
                     "bench.spill");
      }
      r.scheduled += n;
      sim.Run();
      remaining -= n;
    }
    r.executed = sim.ExecutedEvents();
  });
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

  const uint64_t n = quick ? 200000 : 2000000;
  const auto fire = aurora::RunFireMix(n);
  const auto cancel = aurora::RunCancelMix(n);
  const auto ladder = aurora::RunLadderMix(64, n / 64);
  const auto spill = aurora::RunSpillMix(n / 4);

  if (fire.executed != fire.scheduled ||
      cancel.executed != cancel.scheduled - cancel.cancelled ||
      ladder.executed != ladder.scheduled ||
      spill.executed != spill.scheduled) {
    std::fprintf(stderr, "C9: executed/scheduled mismatch — engine bug\n");
    return 1;
  }

  Table table("C9: event-engine schedule/cancel/fire throughput");
  table.Columns({"mix", "scheduled", "cancelled", "executed", "ops/sec"});
  auto row = [&](const char* name, const aurora::MixResult& r) {
    table.Row({name, std::to_string(r.scheduled),
               std::to_string(r.cancelled), std::to_string(r.executed),
               Num(r.OpsPerSec(), 0)});
  };
  row("fire", fire);
  row("cancel_mix", cancel);
  row("ladder", ladder);
  row("spill", spill);
  table.Print();

  BenchJson json("c9_event_engine");
  json.SetString("mode", quick ? "quick" : "full")
      .Set("fire_events", fire.executed)
      .Set("fire_events_per_sec", fire.EventsPerSec())
      .Set("cancel_mix_ops", cancel.scheduled + cancel.cancelled)
      .Set("cancel_mix_ops_per_sec", cancel.OpsPerSec())
      .Set("ladder_events", ladder.executed)
      .Set("ladder_events_per_sec", ladder.EventsPerSec())
      .Set("spill_events", spill.executed)
      .Set("spill_events_per_sec", spill.EventsPerSec())
      // Headline gate metric: the pure schedule+fire rate.
      .Set("events_per_sec", fire.EventsPerSec());
  if (!json.WriteFile()) return 1;
  return 0;
}
