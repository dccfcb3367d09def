// Session consistency (read-your-writes) regression tests.
//
// A ClientSession anchors at the SCN of its last acked commit; reads
// routed to replicas first wait for the replica's VDL to reach the
// anchor (§3.3's "read views anchor at points equivalent to writer-side
// points", extended to a client-visible guarantee). These tests drive
// the guarantee through the hard cases: a badly lagging replica, a
// replication-stream gap where cached replica pages are silently stale,
// a writer failover, and a randomized chaos mix — the session must
// never observe a state older than its own last write. Also covers the
// PGMRPL side: long-running pinned replica views must hold version GC
// back fleet-wide until released.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/core/session.h"

namespace aurora {
namespace {

core::AuroraOptions Options() {
  core::AuroraOptions options;
  options.seed = 77;
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;
  // The whole point of these tests: replica caches small enough that
  // storage reads (and stale-page hazards) actually happen.
  options.replica.cache_pages = 64;
  return options;
}

Status SessionPut(core::AuroraCluster& cluster, core::ClientSession& session,
                  const std::string& key, const std::string& value) {
  Status result = Status::Internal("unset");
  bool done = false;
  session.Put(key, value, [&](Status st) {
    result = std::move(st);
    done = true;
  });
  if (!cluster.RunUntil([&]() { return done; })) {
    return Status::TimedOut("session put stuck");
  }
  return result;
}

Result<std::string> SessionGet(core::AuroraCluster& cluster,
                               core::ClientSession& session,
                               const std::string& key) {
  Result<std::string> result = Status::Internal("unset");
  bool done = false;
  session.Get(key, [&](Result<std::string> r) {
    result = std::move(r);
    done = true;
  });
  if (!cluster.RunUntil([&]() { return done; })) {
    return Status::TimedOut("session get stuck");
  }
  return result;
}

Result<std::vector<std::pair<std::string, std::string>>> SessionScan(
    core::AuroraCluster& cluster, core::ClientSession& session,
    const std::string& lo, const std::string& hi) {
  Result<std::vector<std::pair<std::string, std::string>>> result =
      Status::Internal("unset");
  bool done = false;
  session.Scan(lo, hi, 10, [&](auto r) {
    result = std::move(r);
    done = true;
  });
  if (!cluster.RunUntil([&]() { return done; })) {
    return Status::TimedOut("session scan stuck");
  }
  return result;
}

TEST(SessionConsistency, ReadYourWritesImmediately) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  ASSERT_NE(rep, nullptr);
  cluster.RunFor(100 * kMillisecond);

  core::ClientSession session(&cluster, /*az=*/0);
  for (int g = 0; g < 20; ++g) {
    const std::string value = "v" + std::to_string(g);
    ASSERT_TRUE(SessionPut(cluster, session, "ryw", value).ok());
    EXPECT_GT(session.anchor(), 0u);
    // No settle time: the immediate read-back must already see the write.
    auto v = SessionGet(cluster, session, "ryw");
    ASSERT_TRUE(v.ok()) << g << ": " << v.status().ToString();
    EXPECT_EQ(*v, value) << "stale read at generation " << g;
    if (g % 4 == 0) {
      auto rows = SessionScan(cluster, session, "ryw", "ryx");
      ASSERT_TRUE(rows.ok()) << g << ": " << rows.status().ToString();
      ASSERT_EQ(rows->size(), 1u);
      EXPECT_EQ(rows->front().second, value) << "stale scan at " << g;
    }
  }
  // The fleet actually served session traffic.
  EXPECT_GT(session.stats().replica_reads + session.stats().writer_fallbacks,
            0u);
  // Every session read reached the healthy replica through an anchor.
  // Gets and scans are counted apart, and the cluster's
  // aurora.read.anchored series is their sum.
  EXPECT_EQ(rep->stats().anchored_gets, session.stats().gets);
  EXPECT_EQ(rep->stats().anchored_scans, session.stats().scans);
  EXPECT_EQ(session.stats().scans, 5u);
  const uint64_t anchored = session.stats().gets + session.stats().scans;
  EXPECT_NE(cluster.MetricsJson().find("\"aurora.read.anchored\": " +
                                       std::to_string(anchored) + ","),
            std::string::npos);
}

TEST(SessionConsistency, LaggingReplicaWaitsOrFallsBack) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(100 * kMillisecond);

  // Make the replica's inbound stream crawl: VDL updates arrive ~50x
  // late, so every post-write read faces a genuinely lagging replica.
  cluster.network().SetNodeSlowdown(rep->id(), 50.0);

  core::ClientSession session(&cluster, /*az=*/0);
  for (int g = 0; g < 10; ++g) {
    const std::string value = "g" + std::to_string(g);
    ASSERT_TRUE(SessionPut(cluster, session, "lag", value).ok());
    auto v = SessionGet(cluster, session, "lag");
    ASSERT_TRUE(v.ok()) << g << ": " << v.status().ToString();
    EXPECT_EQ(*v, value) << "lagging replica served stale data at " << g;
  }
  // The guarantee must have been earned, not free: either anchored reads
  // parked for VDL advances or the session fell back to the writer.
  EXPECT_GT(rep->stats().anchor_waits + session.stats().writer_fallbacks, 0u)
      << "test did not exercise the lag path";
}

// The stream-gap hazard: a partition drops MTRs for a block the replica
// has cached; the cached page is then silently stale (nothing arrives to
// expose the chain mismatch) while later VDL updates let anchored reads
// through. Stream continuity closes the hole by dropping the cache on
// the observed seq gap.
TEST(SessionConsistency, StreamGapNeverServesStalePage) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(100 * kMillisecond);

  // Spread keys across many leaves so the post-heal write lands on a
  // DIFFERENT block than the stale one — otherwise the replica would be
  // saved by the chain-mismatch check instead of gap detection.
  for (int i = 0; i < 300; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "a%03d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, "seed").ok());
  }
  core::ClientSession session(&cluster, /*az=*/0);
  ASSERT_TRUE(SessionPut(cluster, session, "a050", "old").ok());
  cluster.RunFor(200 * kMillisecond);
  // Warm the replica's cache with the block that is about to go stale.
  auto warm = SessionGet(cluster, session, "a050");
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(*warm, "old");
  ASSERT_GT(session.stats().replica_reads, 0u)
      << "warm read did not go through the replica; test is vacuous";

  // Drop the replication stream and update the key behind its back.
  cluster.network().Partition(cluster.writer()->id(), rep->id(), true);
  ASSERT_TRUE(SessionPut(cluster, session, "a050", "new").ok());
  cluster.network().Partition(cluster.writer()->id(), rep->id(), false);
  // Post-heal traffic (far key, different leaf) advances the replica's
  // VDL past the lost MTR.
  ASSERT_TRUE(SessionPut(cluster, session, "a250", "x").ok());
  cluster.RunFor(300 * kMillisecond);

  auto v = SessionGet(cluster, session, "a050");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "new") << "stale cached page served across a stream gap";
  EXPECT_GT(rep->stats().stream_gaps, 0u)
      << "the partition did not produce a stream gap; test is vacuous";
  EXPECT_GT(rep->stats().gap_cache_drops, 0u)
      << "the stream gap did not drop the replica cache";
}

// A replica scan with one row it cannot resolve must fail, not come back
// short: a dropped row is a wrong answer, and the session can only fall
// back to the writer on an error. The row's undo is out of the replica's
// reach because its cached leaf ran ahead of its anchor (the writer's VDL
// is stalled while its redo streams on), and the storage re-read that
// would anchor the row times out because the replica is cut off from
// storage as the re-read goes out.
TEST(SessionConsistency, ReplicaScanFailsWhenARowCannotResolve) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  ASSERT_NE(rep, nullptr);
  for (const std::string key : {"s1", "s2", "s3"}) {
    ASSERT_TRUE(cluster.PutBlocking(key, "v" + key).ok());
  }
  cluster.RunFor(200 * kMillisecond);
  using Rows = std::vector<std::pair<std::string, std::string>>;
  Result<Rows> scanned = Status::Internal("unset");
  bool scan_done = false;
  auto start_replica_scan = [&]() {
    scan_done = false;
    rep->Scan("s0", "s9", 10, [&](Result<Rows> r) {
      scanned = std::move(r);
      scan_done = true;
    });
  };
  start_replica_scan();
  ASSERT_TRUE(cluster.RunUntil([&]() { return scan_done; }));
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ(scanned->size(), 3u);

  // Stall the writer's VDL: with half of the PG's segments cut off, no
  // write quorum forms. An uncommitted update then streams to the replica
  // and lands on its cached leaf above its VDL.
  engine::DbInstance* writer = cluster.writer();
  const auto members = writer->driver()->geometry().pgs()[0].AllMembers();
  for (size_t i = 0; i < 3; ++i) {
    cluster.network().Partition(writer->id(), members[i].node, true);
  }
  const TxnId txn = writer->Begin();
  bool put_done = false;
  writer->Put(txn, "s2", "uncommitted", [&](Status st) {
    EXPECT_TRUE(st.ok()) << st.ToString();
    put_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return put_done; }));
  cluster.RunFor(50 * kMillisecond);

  const uint64_t fallbacks = rep->stats().storage_fallback_reads;
  start_replica_scan();
  ASSERT_TRUE(cluster.RunUntil([&]() {
    return scan_done || rep->stats().storage_fallback_reads > fallbacks;
  }));
  ASSERT_FALSE(scan_done) << "no storage fallback; the test is vacuous";
  for (const auto& node : cluster.storage_nodes()) {
    cluster.network().Partition(rep->id(), node->id(), true);
  }
  ASSERT_TRUE(cluster.RunUntil([&]() { return scan_done; }));
  EXPECT_FALSE(scanned.ok()) << "replica scan came back with "
                             << scanned->size() << " rows";

  // The session's scan fails on the replica the same way and falls back
  // to the writer, which serves every row as of its last commit.
  core::ClientSession session(&cluster, /*az=*/0);
  auto rows = SessionScan(cluster, session, "s0", "s9");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, (Rows{{"s1", "vs1"}, {"s2", "vs2"}, {"s3", "vs3"}}));
  EXPECT_EQ(session.stats().writer_fallbacks, 1u);
}

TEST(SessionConsistency, AnchorSurvivesPromote) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(100 * kMillisecond);

  core::ClientSession session(&cluster, /*az=*/0);
  ASSERT_TRUE(SessionPut(cluster, session, "p", "before").ok());
  const Lsn anchor_before = session.anchor();

  auto promoted = cluster.FailoverBlocking();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();

  // Recovery re-establishes VDL at or above every acked SCN, so the old
  // anchor is servable by the new writer AND (eventually) every replica.
  auto v = SessionGet(cluster, session, "p");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "before") << "acked write lost across promote";

  ASSERT_TRUE(SessionPut(cluster, session, "p", "after").ok());
  EXPECT_GE(session.anchor(), anchor_before);
  auto v2 = SessionGet(cluster, session, "p");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, "after");
  // The rewired stream restarts its sequence numbers: the replica must
  // have observed the writer switch as a continuity break.
  cluster.RunFor(300 * kMillisecond);
  EXPECT_GT(rep->stats().stream_gaps, 0u);
}

// A Get whose writer never reaches the anchor — the writer's node is back
// up but the instance was never reopened — answers TimedOut once, at the
// op deadline, from the op's guard timer. The writer-side poll stops at
// that same deadline: with the storage fleet's background work off, the
// whole cluster goes quiet right after it.
TEST(SessionConsistency, WriterThatNeverReachesTheAnchorTimesOutOnce) {
  core::AuroraOptions options = Options();
  options.storage_node.background_enabled = false;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  core::ClientSession session(&cluster, /*az=*/0);
  ASSERT_TRUE(SessionPut(cluster, session, "k", "v").ok());
  cluster.CrashWriter();
  cluster.network().Restart(cluster.writer()->id());
  cluster.RunFor(1 * kSecond);
  ASSERT_FALSE(cluster.writer()->IsOpen());

  constexpr SimDuration kOpTimeout = 10 * kSecond;  // session.cc
  constexpr SimDuration kWriterPoll = 1 * kMillisecond;
  const SimTime asked_at = cluster.sim().Now();
  int answers = 0;
  Status answer = Status::OK();
  SimTime answered_at = 0;
  session.Get("k", [&](Result<std::string> r) {
    ++answers;
    answer = r.status();
    answered_at = cluster.sim().Now();
  });
  cluster.RunFor(kOpTimeout + kWriterPoll);
  EXPECT_EQ(answers, 1);
  EXPECT_TRUE(answer.IsTimedOut()) << answer.ToString();
  EXPECT_EQ(answered_at, asked_at + kOpTimeout);
  EXPECT_EQ(session.stats().writer_fallbacks, 1u);
  EXPECT_EQ(cluster.sim().PendingEvents(), 0u)
      << "the writer poll kept running past the deadline";
  cluster.RunFor(1 * kSecond);
  EXPECT_EQ(answers, 1);
}

// Each op's watchdog is cancelled when the op completes: after a run of
// completed Puts, Gets and Scans the event queue is back at its baseline
// (without the cancellation, every op would leave its kOpTimeout timer,
// and the closures it pins, queued for ten simulated seconds). An op
// whose request is lost still answers TimedOut once, at the deadline.
TEST(SessionConsistency, CompletedOpsCancelTheirWatchdogs) {
  core::AuroraOptions options = Options();
  options.storage_node.background_enabled = false;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(100 * kMillisecond);
  // A slow replica stream makes reads right after a Put park until the
  // replica's VDL reaches the anchor, so its anchor-wait timer runs too.
  cluster.network().SetNodeSlowdown(rep->id(), 50.0);
  core::ClientSession session(&cluster, /*az=*/0);
  ASSERT_TRUE(SessionPut(cluster, session, "k0", "v").ok());
  cluster.RunFor(1 * kSecond);
  const size_t baseline = cluster.sim().PendingEvents();

  for (int i = 0; i < 10; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(SessionPut(cluster, session, key, "v" + std::to_string(i))
                    .ok());
    ASSERT_TRUE(SessionGet(cluster, session, key).ok());
    bool scanned = false;
    session.Scan("k", "l", 100, [&](Result<core::ClientSession::Rows> rows) {
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      scanned = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return scanned; }));
  }
  EXPECT_EQ(session.stats().puts, 11u);
  EXPECT_EQ(session.stats().gets, 10u);
  EXPECT_EQ(session.stats().scans, 10u);
  EXPECT_GT(rep->stats().anchor_waits, 0u);
  // Let the last commit's stragglers (acks, stream, boxcars) settle. Only
  // the periodic loops stay queued; one of their messages may be in
  // flight at one instant and not at the other, hence at most baseline.
  cluster.RunFor(1 * kSecond);
  EXPECT_LE(cluster.sim().PendingEvents(), baseline)
      << "a completed op left its watchdog queued";

  // A request the network drops: the watchdog answers, exactly once.
  constexpr SimDuration kOpTimeout = 10 * kSecond;  // session.cc
  cluster.network().Partition(session.node(), cluster.writer()->id(), true);
  const SimTime asked_at = cluster.sim().Now();
  int answers = 0;
  Status answer = Status::OK();
  SimTime answered_at = 0;
  session.Put("lost", "v", [&](Status st) {
    ++answers;
    answer = st;
    answered_at = cluster.sim().Now();
  });
  cluster.RunFor(kOpTimeout + 1 * kSecond);
  EXPECT_EQ(answers, 1);
  EXPECT_TRUE(answer.IsTimedOut()) << answer.ToString();
  EXPECT_EQ(answered_at, asked_at + kOpTimeout);
}

// Randomized chaos: partitions around the replica, replica crashes, and
// a writer failover, interleaved with session traffic. Reads may time
// out under heavy faults, but a successful read must NEVER return a
// value older than the session's last acked write.
TEST(SessionConsistency, ReadYourWritesUnderChaos) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(100 * kMillisecond);

  core::ClientSession session(&cluster, /*az=*/0);
  Rng chaos(0xc4a05u);
  int last_acked = -1;
  int successful_reads = 0;
  for (int round = 0; round < 30; ++round) {
    // Fault phase.
    const uint64_t dice = chaos.NextBounded(10);
    if (dice < 3) {
      cluster.network().Partition(cluster.writer()->id(), rep->id(), true);
    } else if (dice < 5) {
      cluster.network().Partition(cluster.writer()->id(), rep->id(), false);
    } else if (dice == 5) {
      cluster.network().Crash(rep->id());
    } else if (dice == 6) {
      cluster.network().Restart(rep->id());
      rep->Start();
    } else if (dice == 7 && round > 0 && round % 10 == 0) {
      cluster.network().Partition(cluster.writer()->id(), rep->id(), false);
      auto promoted = cluster.FailoverBlocking();
      ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    }

    // Traffic phase.
    const std::string value = std::to_string(round);
    if (SessionPut(cluster, session, "chaos", value).ok()) {
      last_acked = round;
    }
    auto v = SessionGet(cluster, session, "chaos");
    if (v.ok() && last_acked >= 0) {
      successful_reads++;
      EXPECT_GE(std::stoi(*v), last_acked)
          << "round " << round << ": session observed a state older than "
          << "its own acked write";
    }
    cluster.RunFor(50 * kMillisecond);
  }
  // Sanity: the run must not have been all-timeouts.
  EXPECT_GT(successful_reads, 5);
}

// PGMRPL pressure (§3.4): a long-running pinned replica view holds the
// fleet-wide minimum read point — and with it version GC at the
// segments — until unpinned.
TEST(SessionConsistency, PinnedViewStallsVersionGc) {
  core::AuroraCluster cluster(Options());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  auto* rep = cluster.AddReplica();
  cluster.RunFor(200 * kMillisecond);
  ASSERT_TRUE(cluster.PutBlocking("hot", "v0").ok());
  cluster.RunFor(300 * kMillisecond);

  const uint64_t pin = rep->PinView();
  ASSERT_NE(pin, 0u);
  const Lsn pin_anchor = rep->MinReadPoint();
  EXPECT_EQ(rep->pinned_view_count(), 1u);

  // Generate version churn well past the pin.
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("hot", "v" + std::to_string(i)).ok());
  }
  cluster.RunFor(500 * kMillisecond);  // several read-point reports

  // The pinned view caps the fleet PGMRPL at the pin anchor.
  EXPECT_LE(cluster.writer()->ComputePgmrpl(), pin_anchor);
  // And no segment may have learned a PGMRPL above it.
  cluster.ForEachSegment([&](storage::StorageNode*,
                             storage::SegmentStore* segment) {
    if (segment->pgmrpl() != kInvalidLsn) {
      EXPECT_LE(segment->pgmrpl(), pin_anchor);
    }
  });

  rep->UnpinView(pin);
  EXPECT_EQ(rep->pinned_view_count(), 0u);
  // More churn + report cycles: PGMRPL must now advance past the pin.
  for (int i = 31; i <= 40; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("hot", "v" + std::to_string(i)).ok());
  }
  cluster.RunFor(500 * kMillisecond);
  EXPECT_GT(cluster.writer()->ComputePgmrpl(), pin_anchor);

  // Drive reads so storage learns the released read point, then GC.
  for (int i = 0; i < 5; ++i) {
    auto v = cluster.GetBlocking("hot");
    ASSERT_TRUE(v.ok());
  }
  bool done = false;
  rep->Get("hot", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  uint64_t gced = 0;
  for (auto& node : cluster.storage_nodes()) {
    node->RunGcOnce();
  }
  cluster.ForEachSegment([&](storage::StorageNode*,
                             storage::SegmentStore* segment) {
    gced += segment->stats().versions_gced;
  });
  EXPECT_GT(gced, 0u) << "version churn above the released read point "
                         "should be collectable";
}

}  // namespace
}  // namespace aurora
