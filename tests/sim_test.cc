// Unit tests for the simulation substrate: event loop ordering and
// cancellation, network latency/liveness/partitions, and the failure
// injector's stochastic processes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/failure_injector.h"
#include "src/sim/network.h"
#include "src/sim/rpc.h"
#include "src/sim/simulator.h"

namespace aurora::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&]() { order.push_back(3); });
  sim.Schedule(10, [&]() { order.push_back(1); });
  sim.Schedule(20, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, FifoForEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(10, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.Schedule(10, [&]() { ran = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  EventId a = sim.Schedule(10, []() {});
  sim.Schedule(20, []() {});
  sim.Schedule(30, []() {});
  EXPECT_EQ(sim.PendingEvents(), 3u);
  sim.Cancel(a);
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Run();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.ExecutedEvents(), 2u);
}

TEST(Simulator, CancelAfterFireLeavesNoResidue) {
  Simulator sim;
  EventId id = sim.Schedule(10, []() {});
  sim.Run();
  EXPECT_EQ(sim.ExecutedEvents(), 1u);
  // Cancelling an already-fired event must be a no-op, not a tombstone
  // that permanently skews PendingEvents().
  sim.Cancel(id);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  bool ran = false;
  sim.Schedule(10, [&]() { ran = true; });
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(Simulator, CancelUnknownOrRepeatedIdIsHarmless) {
  Simulator sim;
  sim.Cancel(kInvalidEvent);
  sim.Cancel(999999);  // never scheduled
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EventId id = sim.Schedule(10, []() {});
  sim.Cancel(id);
  sim.Cancel(id);  // double cancel
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.Run();
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&]() {
    count++;
    sim.Schedule(10, tick);
  };
  sim.Schedule(10, tick);
  sim.RunUntil(55);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), 55);
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  SimTime inner_time = 0;
  sim.Schedule(10, [&]() {
    sim.Schedule(5, [&]() { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, 15);
}

TEST(Simulator, CancelReleasesClosureStateImmediately) {
  // Cancelling must destroy the captured closure at Cancel() time, not
  // when the tombstoned heap entry eventually pops: a retained shared_ptr
  // would otherwise pin arbitrary object graphs (pages, sockets) for the
  // remaining simulated lifetime of the dead event.
  Simulator sim;
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> observer = payload;
  EventId id = sim.Schedule(1000000, [payload]() { (void)*payload; });
  payload.reset();
  EXPECT_FALSE(observer.expired()) << "closure should hold the last ref";
  sim.Cancel(id);
  EXPECT_TRUE(observer.expired())
      << "cancel must release the captured state promptly";
  sim.Run();
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
}

TEST(Simulator, StaleIdAfterSlotReuseIsHarmless) {
  Simulator sim;
  EventId old_id = sim.Schedule(10, []() {});
  sim.Cancel(old_id);
  // The freed slot is recycled for the next event; the stale id carries
  // the old generation and must not be able to cancel the new tenant.
  bool ran = false;
  sim.Schedule(20, [&]() { ran = true; });
  sim.Cancel(old_id);
  sim.Cancel(old_id);
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.ExecutedEvents(), 1u);
}

TEST(Simulator, TombstoneCompactionReclaimsHeapEntries) {
  Simulator sim;
  std::vector<EventId> ids;
  const size_t n = 256;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(sim.Schedule(static_cast<SimDuration>(10 + i), []() {}));
  }
  EXPECT_EQ(sim.HeapEntriesForTest(), n);
  // Cancel most events: once tombstones exceed half the heap, compaction
  // must rebuild it instead of letting dead entries accumulate.
  for (size_t i = 0; i < n - 8; ++i) sim.Cancel(ids[i]);
  EXPECT_EQ(sim.PendingEvents(), 8u);
  EXPECT_LT(sim.HeapEntriesForTest(), n / 2)
      << "compaction should have shed the tombstones";
  EXPECT_LE(sim.DeadHeapEntriesForTest(), sim.HeapEntriesForTest());
  sim.Run();
  EXPECT_EQ(sim.ExecutedEvents(), 8u);
  EXPECT_EQ(sim.HeapEntriesForTest(), 0u);
  EXPECT_EQ(sim.DeadHeapEntriesForTest(), 0u);
}

TEST(Simulator, CancelHeavyInterleavedOrdering) {
  // Interleave schedules and cancels (the retry-timer pattern: most
  // timers are armed and disarmed without firing) and verify survivors
  // run in exact (time, seq) order.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> cancellable;
  for (int round = 0; round < 50; ++round) {
    // Two keepers and two victims per round, at colliding timestamps.
    const SimDuration when = 10 + (round % 7);
    sim.Schedule(when, [&order, round]() { order.push_back(round * 2); });
    cancellable.push_back(sim.Schedule(when, [&order]() {
      order.push_back(-1);  // must never run
    }));
    sim.Schedule(when + 3, [&order, round]() {
      order.push_back(round * 2 + 1);
    });
    cancellable.push_back(sim.Schedule(when + 3, [&order]() {
      order.push_back(-1);
    }));
    if (round % 2 == 0) {
      // Cancel this round's victims immediately...
      sim.Cancel(cancellable[cancellable.size() - 2]);
      sim.Cancel(cancellable.back());
      cancellable.resize(cancellable.size() - 2);
    }
  }
  // ...and the accumulated odd-round victims before running.
  for (EventId id : cancellable) sim.Cancel(id);
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  // Survivors must be sorted by (time, seq): reconstruct expected order.
  std::vector<std::pair<SimTime, int>> expected;
  for (int round = 0; round < 50; ++round) {
    expected.push_back({10 + (round % 7), round * 2});
    expected.push_back({10 + (round % 7) + 3, round * 2 + 1});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(order[i], expected[i].second) << "position " << i;
  }
}

TEST(Simulator, RunUntilDeadlineBoundary) {
  Simulator sim;
  bool at_deadline = false;
  bool after_deadline = false;
  sim.Schedule(50, [&]() { at_deadline = true; });
  sim.Schedule(51, [&]() { after_deadline = true; });
  sim.RunUntil(50);
  // An event exactly AT the deadline runs; one past it stays pending.
  EXPECT_TRUE(at_deadline);
  EXPECT_FALSE(after_deadline);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_TRUE(after_deadline);
}

TEST(Simulator, RunForLandsClockWithEmptyQueue) {
  // With nothing left to run, the clock still lands on the deadline, and
  // RunFor measures its span from the landed clock.
  Simulator sim;
  sim.Schedule(10, []() {});
  sim.RunUntil(500);
  EXPECT_EQ(sim.Now(), 500);
  sim.RunFor(250);
  EXPECT_EQ(sim.Now(), 750);
  EXPECT_EQ(sim.ExecutedEvents(), 1u);
}

TEST(Simulator, RunUntilIgnoresCancelledTopBeyondDeadline) {
  // A cancelled event at the top of the heap with time <= deadline must
  // not trick RunUntil into executing the next LIVE event beyond the
  // deadline: dead entries are pruned before the deadline check.
  Simulator sim;
  EventId dead = sim.Schedule(40, []() {});
  bool beyond_ran = false;
  sim.Schedule(60, [&]() { beyond_ran = true; });
  sim.Cancel(dead);
  sim.RunUntil(50);
  EXPECT_FALSE(beyond_ran);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.ExecutedEvents(), 0u);
  sim.RunUntil(60);
  EXPECT_TRUE(beyond_ran);
}

TEST(Simulator, LargeClosureSpillsToPoolAndRuns) {
  // Captures beyond the inline small-buffer budget take the closure-pool
  // path; behaviour (ordering, cancel, destruction) must be identical.
  Simulator sim;
  std::array<uint64_t, 40> big{};  // 320 bytes, well past the inline cap
  for (size_t i = 0; i < big.size(); ++i) big[i] = i;
  uint64_t sum = 0;
  sim.Schedule(10, [big, &sum]() {
    for (uint64_t v : big) sum += v;
  });
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> observer = payload;
  EventId spill = sim.Schedule(20, [big, payload]() { (void)*payload; });
  payload.reset();
  sim.Cancel(spill);
  EXPECT_TRUE(observer.expired())
      << "pooled closure must also release state at cancel";
  sim.Run();
  EXPECT_EQ(sum, (big.size() - 1) * big.size() / 2);
}

TEST(Network, DeliversWithLatency) {
  Simulator sim;
  NetworkOptions options;
  options.intra_az = LatencyDistribution::Constant(100);
  options.cross_az = LatencyDistribution::Constant(700);
  options.bytes_per_us = 0;
  Network net(&sim, options);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  net.RegisterNode(3, 1);

  SimTime intra = 0, cross = 0;
  net.Send(1, 2, 10, [&]() { intra = sim.Now(); });
  net.Send(1, 3, 10, [&]() { cross = sim.Now(); });
  sim.Run();
  EXPECT_EQ(intra, 100);
  EXPECT_EQ(cross, 700);
}

TEST(Network, CrashDropsInFlightAndFutureMessages) {
  Simulator sim;
  NetworkOptions options;
  options.intra_az = LatencyDistribution::Constant(100);
  Network net(&sim, options);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);

  bool delivered = false;
  net.Send(1, 2, 10, [&]() { delivered = true; });
  sim.Schedule(50, [&]() { net.Crash(2); });  // mid-flight
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats().messages_dropped, 1u);

  // Down destination: dropped at send.
  net.Send(1, 2, 10, [&]() { delivered = true; });
  sim.Run();
  EXPECT_FALSE(delivered);
}

TEST(Network, RestartDoesNotResurrectOldDeliveries) {
  Simulator sim;
  NetworkOptions options;
  options.intra_az = LatencyDistribution::Constant(100);
  Network net(&sim, options);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  bool delivered = false;
  net.Send(1, 2, 10, [&]() { delivered = true; });
  sim.Schedule(10, [&]() { net.Crash(2); });
  sim.Schedule(20, [&]() { net.Restart(2); });  // back up before delivery
  sim.Run();
  // Incarnation changed: the old message must not be delivered.
  EXPECT_FALSE(delivered);
}

TEST(Network, PartitionBlocksBothWays) {
  Simulator sim;
  Network net(&sim);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 1);
  net.Partition(1, 2, true);
  bool delivered = false;
  net.Send(1, 2, 10, [&]() { delivered = true; });
  net.Send(2, 1, 10, [&]() { delivered = true; });
  sim.Run();
  EXPECT_FALSE(delivered);
  net.Partition(1, 2, false);
  net.Send(1, 2, 10, [&]() { delivered = true; });
  sim.Run();
  EXPECT_TRUE(delivered);
}

TEST(Network, AzFailureCrashesAllNodesInAz) {
  Simulator sim;
  Network net(&sim);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  net.RegisterNode(3, 1);
  net.FailAz(0);
  EXPECT_FALSE(net.IsUp(1));
  EXPECT_FALSE(net.IsUp(2));
  EXPECT_TRUE(net.IsUp(3));
  // A node inside a failed AZ cannot restart individually.
  net.Restart(1);
  EXPECT_FALSE(net.IsUp(1));
  net.RestoreAz(0);
  EXPECT_TRUE(net.IsUp(1));
  EXPECT_TRUE(net.IsUp(2));
}

TEST(Network, LifecycleListenerNotified) {
  struct Listener : NodeLifecycleListener {
    int crashes = 0;
    int restarts = 0;
    void OnCrash() override { crashes++; }
    void OnRestart() override { restarts++; }
  };
  Simulator sim;
  Network net(&sim);
  Listener listener;
  net.RegisterNode(1, 0, &listener);
  net.Crash(1);
  net.Crash(1);  // idempotent
  net.Restart(1);
  EXPECT_EQ(listener.crashes, 1);
  EXPECT_EQ(listener.restarts, 1);
}

TEST(Network, SlowdownInflatesLatency) {
  Simulator sim;
  NetworkOptions options;
  options.intra_az = LatencyDistribution::Constant(100);
  options.bytes_per_us = 0;
  Network net(&sim, options);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  net.SetNodeSlowdown(2, 5.0);
  SimTime at = 0;
  net.Send(1, 2, 10, [&]() { at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(at, 500);
}

TEST(Network, HopFloorIsOneMicrosecond) {
  // A sub-unity slowdown cannot push a hop between distinct nodes below
  // 1us; loopback is also 1us.
  Simulator sim;
  NetworkOptions options;
  options.intra_az = LatencyDistribution::Constant(100);
  options.bytes_per_us = 0;
  Network net(&sim, options);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  net.SetNodeSlowdown(2, 0.001);
  EXPECT_EQ(net.SampleLatency(1, 2, 10), 1);
  EXPECT_EQ(net.SampleLatency(1, 1, 10), 1);
  SimTime at = 0;
  net.Send(1, 2, 10, [&]() { at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(at, 1);
}

TEST(Network, BandwidthTermScalesWithBytes) {
  Simulator sim;
  NetworkOptions options;
  options.intra_az = LatencyDistribution::Constant(100);
  options.bytes_per_us = 10.0;
  Network net(&sim, options);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  SimTime at = 0;
  net.Send(1, 2, 5000, [&]() { at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(at, 600);  // 100 base + 5000/10
}

TEST(Network, StatsAccounting) {
  Simulator sim;
  Network net(&sim);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  net.Send(1, 2, 100, []() {});
  net.Send(1, 2, 200, []() {});
  sim.Run();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 300u);
}

TEST(Rpc, UnaryCallRoundTrips) {
  Simulator sim;
  NetworkOptions options;
  options.intra_az = LatencyDistribution::Constant(50);
  options.bytes_per_us = 0;
  Network net(&sim, options);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  int response = 0;
  SimTime at = 0;
  UnaryCall<int>(
      &net, 1, 2, 100, [](ReplyFn<int> reply) { reply(42); },
      [](const int&) { return uint64_t{10}; },
      [&](int v) {
        response = v;
        at = sim.Now();
      });
  sim.Run();
  EXPECT_EQ(response, 42);
  EXPECT_EQ(at, 100);  // 50 each way
}

TEST(Rpc, ServerCrashSwallowsCall) {
  Simulator sim;
  Network net(&sim);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 0);
  net.Crash(2);
  bool responded = false;
  UnaryCall<int>(
      &net, 1, 2, 100, [](ReplyFn<int> reply) { reply(1); },
      [](const int&) { return uint64_t{10}; },
      [&](int) { responded = true; });
  sim.Run();
  EXPECT_FALSE(responded);
}

TEST(FailureInjector, ScriptedFaultsFire) {
  Simulator sim;
  Network net(&sim);
  net.RegisterNode(1, 0);
  FailureInjector injector(&sim, &net);
  injector.CrashNodeAt(100, 1);
  injector.RestartNodeAt(200, 1);
  sim.RunUntil(150);
  EXPECT_FALSE(net.IsUp(1));
  sim.RunUntil(250);
  EXPECT_TRUE(net.IsUp(1));
}

TEST(FailureInjector, BackgroundProcessProducesFailures) {
  Simulator sim(77);
  Network net(&sim);
  for (NodeId n = 1; n <= 10; ++n) net.RegisterNode(n, n % 3);
  FailureModel model;
  model.node_mttf = 10 * kSecond;
  model.node_mttr = 1 * kSecond;
  FailureInjector injector(&sim, &net, model);
  injector.Start({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  sim.RunUntil(60 * kSecond);
  injector.Stop();
  // Expectation ~ 10 nodes * 60s / 10s MTTF = ~60 failures; loose bounds.
  EXPECT_GT(injector.node_failures(), 20u);
  EXPECT_LT(injector.node_failures(), 200u);
}

TEST(FailureInjector, AzOutageProcess) {
  Simulator sim(5);
  Network net(&sim);
  net.RegisterNode(1, 0);
  FailureModel model;
  model.node_mttf = 0x7fffffffffff;  // effectively never
  model.az_mttf = 5 * kSecond;
  model.az_mttr = 1 * kSecond;
  FailureInjector injector(&sim, &net, model);
  injector.Start({}, {0});
  sim.RunUntil(60 * kSecond);
  EXPECT_GT(injector.az_failures(), 3u);
}

TEST(FailureInjector, SlowNodeRestores) {
  Simulator sim;
  Network net(&sim);
  net.RegisterNode(1, 0);
  FailureInjector injector(&sim, &net);
  injector.SlowNodeAt(10, 1, 8.0, 100);
  sim.RunUntil(50);
  EXPECT_EQ(net.NodeSlowdown(1), 8.0);
  sim.RunUntil(200);
  EXPECT_EQ(net.NodeSlowdown(1), 1.0);
}

}  // namespace
}  // namespace aurora::sim
