// Experiment C2 — §2.2 claim: boxcarring without induced latency.
//
// "Waiting creates performance jitter since early requests entering the
// boxcar have to wait for later requests or a timeout to fill the request.
// Jitter is greatest under low load when the boxcar times out. Aurora
// handles this by submitting the asynchronous network operation when it
// receives the first redo log record in the boxcar but continuing to fill
// the buffer until the network operation executes."
//
// The table sweeps arrival rates and reports, for both policies: the added
// batching delay (record arrival -> dispatch) p50/p99 and the packing
// efficiency (records per network operation).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/log/boxcar.h"

namespace aurora {
namespace {

struct BoxcarResult {
  Histogram added_delay;
  double mean_fill = 0;
  uint64_t batches = 0;
};

BoxcarResult RunPolicy(log::BoxcarPolicy policy, double records_per_sec,
                       SimDuration duration) {
  sim::Simulator sim(99);
  log::BoxcarOptions options;
  options.policy = policy;
  options.dispatch_delay = 20;
  options.fill_timeout = 4 * kMillisecond;
  options.max_batch_bytes = 32 * 1024;

  BoxcarResult result;
  std::map<Lsn, SimTime> arrival;
  log::BoxcarBatcher boxcar(&sim, options,
                            [&](std::vector<log::SealedRecord> batch) {
                              for (const auto& rec : batch) {
                                result.added_delay.Record(
                                    sim.Now() - arrival[rec->lsn]);
                              }
                            });
  // Poisson arrivals.
  Rng rng(7);
  Lsn next_lsn = 1;
  std::function<void()> arrive = [&]() {
    if (sim.Now() >= duration) return;
    log::RedoRecord rec;
    rec.lsn = next_lsn++;
    rec.prev_lsn_segment = rec.lsn - 1;
    rec.payload = std::string(200, 'x');
    arrival[rec.lsn] = sim.Now();
    boxcar.Add(log::Seal(std::move(rec)));
    sim.Schedule(static_cast<SimDuration>(
                     rng.NextExponential(1e6 / records_per_sec)),
                 arrive);
  };
  arrive();
  sim.RunUntil(duration + kSecond);
  boxcar.Flush();
  result.mean_fill = boxcar.MeanBatchFill();
  result.batches = boxcar.batches_sent();
  return result;
}

}  // namespace
}  // namespace aurora

namespace {

void BM_BoxcarAdd(benchmark::State& state) {
  aurora::sim::Simulator sim;
  aurora::log::BoxcarBatcher boxcar(
      &sim, {}, [](std::vector<aurora::log::SealedRecord>) {});
  aurora::log::RedoRecord rec;
  rec.payload = std::string(200, 'x');
  const aurora::log::SealedRecord sealed = aurora::log::Seal(rec);
  uint64_t added = 0;
  for (auto _ : state) {
    boxcar.Add(sealed);
    if (++added % 64 == 0) {
      boxcar.Flush();
      sim.Run();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoxcarAdd);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::Num;
  using aurora::bench::Table;
  using aurora::bench::Us;

  Table table("C2: boxcar policies — added batching delay and packing "
              "(5 simulated seconds per cell)");
  table.Columns({"records/s", "policy", "delay p50", "delay p99",
                 "records/batch"});
  for (double rate : {50.0, 500.0, 5000.0, 50000.0}) {
    for (auto policy : {aurora::log::BoxcarPolicy::kSubmitOnFirst,
                        aurora::log::BoxcarPolicy::kFillOrTimeout}) {
      auto r = aurora::RunPolicy(policy, rate, 5 * aurora::kSecond);
      table.Row({Num(rate, 0),
                 policy == aurora::log::BoxcarPolicy::kSubmitOnFirst
                     ? "Aurora submit-on-first"
                     : "fill-or-timeout",
                 Us(r.added_delay.P50()), Us(r.added_delay.P99()),
                 Num(r.mean_fill, 2)});
    }
  }
  table.Print();
  std::printf(
      "(At low rates the timeout boxcar adds its full 4ms timeout to every\n"
      " record — the jitter the paper calls out — while submit-on-first\n"
      " adds only the ~20us dispatch window. At high rates both pack well\n"
      " and the delay difference disappears.)\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
