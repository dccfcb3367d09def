// Storage-driver integration tests against a real mini storage fleet:
// quorum ack bookkeeping, retransmission of lost writes, fencing
// callbacks, routed reads with hedging under slow nodes, and epoch
// attachment.

#include <gtest/gtest.h>

#include "src/engine/storage_driver.h"
#include "src/storage/storage_node.h"

namespace aurora::engine {
namespace {

struct Fixture {
  sim::Simulator sim{17};
  sim::NetworkOptions net_options;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<storage::ObjectStore> object_store;
  std::vector<std::unique_ptr<storage::StorageNode>> nodes;
  quorum::PgConfig config;
  std::unique_ptr<StorageDriver> driver;
  static constexpr NodeId kDriverNode = 1;

  explicit Fixture(storage::StorageNodeOptions node_options = {},
                   DriverOptions driver_options = {}) {
    net_options.intra_az = LatencyDistribution::Constant(100);
    net_options.cross_az = LatencyDistribution::Constant(500);
    net_options.bytes_per_us = 0;
    network = std::make_unique<sim::Network>(&sim, net_options);
    object_store = std::make_unique<storage::ObjectStore>(&sim);
    network->RegisterNode(kDriverNode, 0);

    std::vector<quorum::SegmentInfo> members;
    for (SegmentId id = 0; id < 6; ++id) {
      members.push_back({id, static_cast<NodeId>(100 + id),
                         static_cast<AzId>(id / 2), true});
    }
    config = quorum::PgConfig::Create(0, quorum::QuorumModel::kUniform46,
                                      members);
    node_options.background_enabled = false;  // manual stage control
    for (const auto& m : members) {
      nodes.push_back(std::make_unique<storage::StorageNode>(
          &sim, network.get(), m.node, m.az, object_store.get(),
          node_options));
      nodes.back()->AddSegment(m, 0, config, /*volume_epoch=*/1);
    }
    auto resolver = [this](NodeId id) -> storage::StorageNode* {
      for (auto& n : nodes) {
        if (n->id() == id) return n.get();
      }
      return nullptr;
    };
    for (auto& n : nodes) n->SetResolver(resolver);
    driver_options.retry_interval = 20 * kMillisecond;
    driver = std::make_unique<StorageDriver>(
        &sim, network.get(), kDriverNode, resolver, driver_options);
    driver->SetGeometry(quorum::VolumeGeometry(1 << 16, {config}), 1);
    driver->Start();
  }

  log::SealedRecord Record(Lsn lsn, BlockId block = 5) {
    log::RedoRecord rec;
    rec.lsn = lsn;
    rec.prev_lsn_volume = lsn - 1;
    rec.prev_lsn_segment = lsn - 1;
    rec.prev_lsn_block = 0;
    rec.pg = 0;
    rec.block = block;
    storage::PageOp op;
    op.type = storage::PageOpType::kFormat;
    op.page_type = storage::PageType::kLeaf;
    rec.payload = EncodePageOp(op);
    return log::Seal(std::move(rec));
  }
};

TEST(StorageDriver, VclAdvancesOnQuorumAcks) {
  Fixture f;
  f.driver->SubmitRecords({f.Record(1)});
  f.sim.RunFor(50 * kMillisecond);
  EXPECT_EQ(f.driver->tracker().vcl(), 1u);
  EXPECT_EQ(f.driver->tracker().pgcl(0), 1u);
  EXPECT_GE(f.driver->stats().acks_received, 4u);
  // Every successful ack runs its own consistency-point pass.
  EXPECT_EQ(f.driver->stats().advance_passes,
            f.driver->stats().acks_received);
}

TEST(StorageDriver, NoQuorumNoVcl) {
  Fixture f;
  // Only 3 of 6 segments up: write quorum unreachable.
  for (int i = 3; i < 6; ++i) f.network->Crash(100 + i);
  f.driver->SubmitRecords({f.Record(1)});
  f.sim.RunFor(200 * kMillisecond);
  EXPECT_EQ(f.driver->tracker().vcl(), kInvalidLsn);
  // Bring one back: the retransmission sweep completes the quorum.
  f.network->Restart(103);
  f.sim.RunFor(500 * kMillisecond);
  EXPECT_EQ(f.driver->tracker().vcl(), 1u);
  EXPECT_GT(f.driver->stats().retransmissions, 0u);
}

TEST(StorageDriver, AdvanceCallbackFires) {
  Fixture f;
  int advances = 0;
  f.driver->SetAdvanceCallback([&]() { advances++; });
  f.driver->SubmitRecords({f.Record(1)});
  f.driver->SubmitRecords({f.Record(2)});
  f.sim.RunFor(100 * kMillisecond);
  EXPECT_GT(advances, 0);
  EXPECT_EQ(f.driver->tracker().vcl(), 2u);
}

TEST(StorageDriver, FencedCallbackOnStaleEpoch) {
  Fixture f;
  // A newer incarnation bumped the volume epoch at the storage fleet.
  for (auto& node : f.nodes) {
    storage::VolumeEpochUpdateRequest request;
    request.segment = node->segments().begin()->first;
    request.new_epoch = 9;
    node->FindSegment(request.segment)->UpdateVolumeEpoch(request);
  }
  bool fenced = false;
  f.driver->SetFencedCallback([&]() { fenced = true; });
  f.driver->SubmitRecords({f.Record(1)});
  f.sim.RunFor(100 * kMillisecond);
  EXPECT_TRUE(fenced) << "stale-epoch acks must box the writer out";
}

TEST(StorageDriver, RoutedReadServesMaterializedBlock) {
  Fixture f;
  f.driver->SubmitRecords({f.Record(1, /*block=*/7)});
  f.sim.RunFor(50 * kMillisecond);
  bool done = false;
  f.driver->ReadBlock(7, 1, kInvalidLsn, [&](Result<storage::Page> page) {
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(page->id, 7u);
    EXPECT_EQ(page->page_lsn, 1u);
    done = true;
  });
  f.sim.RunFor(100 * kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.driver->stats().reads_issued, 1u) << "single read, no quorum";
}

// The read deadline is cancelled when the read completes: a finished
// ReadBlock leaves nothing in the event queue (before, each page read
// pinned its state under a 5 s timer that fired as a no-op).
TEST(StorageDriver, CompletedReadLeavesNoDeadline) {
  Fixture f;
  f.driver->SubmitRecords({f.Record(1, /*block=*/7)});
  f.sim.RunFor(50 * kMillisecond);
  const size_t baseline = f.sim.PendingEvents();
  int answers = 0;
  f.driver->ReadBlock(7, 1, kInvalidLsn, [&](Result<storage::Page> page) {
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    ++answers;
  });
  EXPECT_EQ(f.sim.PendingEvents(), baseline + 3)
      << "request, hedge timer and deadline";
  // Past the hedge timer, well short of the 5 s deadline.
  f.sim.RunFor(1 * kSecond);
  EXPECT_EQ(answers, 1);
  EXPECT_EQ(f.sim.PendingEvents(), baseline);
}

// The driver's retransmission buffer and boxcars hold the sealed block
// itself: a record re-sent from the buffer to a segment that missed it
// lands there as the very block the other segments hold.
TEST(StorageDriver, RetransmissionShipsTheSealedBlock) {
  Fixture f;
  for (NodeId node = 103; node <= 105; ++node) f.network->Crash(node);
  const log::SealedRecord record = f.Record(1);
  f.driver->SubmitRecords({record});
  f.sim.RunFor(10 * kMillisecond);
  // Three acks are no write quorum: the record stays retained.
  ASSERT_EQ(f.driver->RetainedRecords(), 1u);
  f.network->Restart(103);
  f.sim.RunFor(200 * kMillisecond);
  EXPECT_GT(f.driver->stats().retransmissions, 0u);
  EXPECT_EQ(f.driver->tracker().vcl(), 1u);
  for (const auto& node : f.nodes) {
    if (!f.network->IsUp(node->id())) continue;
    const log::RedoRecord* stored =
        node->segments().begin()->second->hot_log().Find(1);
    ASSERT_NE(stored, nullptr) << "node " << node->id();
    EXPECT_EQ(stored, record.get()) << "node " << node->id();
  }
}

TEST(StorageDriver, HedgedReadCapsSlowSegmentLatency) {
  Fixture f;
  f.driver->SubmitRecords({f.Record(1, 7)});
  f.sim.RunFor(50 * kMillisecond);
  // Teach the router that segment 0's node is fastest, then make it slow:
  // the hedge must rescue the read.
  for (int i = 0; i < 10; ++i) {
    f.driver->router().ObserveLatency(0, 100);
    for (SegmentId s = 1; s < 6; ++s) {
      f.driver->router().ObserveLatency(s, 5000);
    }
  }
  f.network->SetNodeSlowdown(100, 200.0);  // 100us -> 20ms
  bool done = false;
  SimTime start = f.sim.Now();
  SimDuration elapsed = 0;
  f.driver->ReadBlock(7, 1, kInvalidLsn, [&](Result<storage::Page> page) {
    ASSERT_TRUE(page.ok());
    elapsed = f.sim.Now() - start;
    done = true;
  });
  f.sim.RunFor(200 * kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_GT(f.driver->router().hedged_reads(), 0u);
  EXPECT_LT(elapsed, 15 * kMillisecond)
      << "hedge must beat the 20ms slow segment";
}

TEST(StorageDriver, HedgeFiresExactlyOnceAndStatsAgree) {
  Fixture f;
  f.driver->SubmitRecords({f.Record(1, 7)});
  f.sim.RunFor(50 * kMillisecond);
  // Segment 0 is believed fastest; every other estimate is far above the
  // max hedge delay so only ONE hedge can beat the 5s read deadline.
  for (int i = 0; i < 10; ++i) {
    f.driver->router().ObserveLatency(0, 100);
    for (SegmentId s = 1; s < 6; ++s) {
      f.driver->router().ObserveLatency(s, 5000);
    }
  }
  // Slow segment 0's node past hedge_multiplier * expected (3 * 100us):
  // 100us * 400 = 40ms, far beyond the 20ms max_hedge_delay cap.
  f.network->SetNodeSlowdown(100, 400.0);
  const uint64_t hedges_before = f.driver->router().hedged_reads();
  const uint64_t reads_before = f.driver->stats().reads_issued;
  bool done = false;
  f.driver->ReadBlock(7, 1, kInvalidLsn, [&](Result<storage::Page> page) {
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    done = true;
  });
  // Run past the slow reply too, so any over-eager second hedge would
  // have fired by now.
  f.sim.RunFor(300 * kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(f.driver->router().hedged_reads() - hedges_before, 1u)
      << "exactly one hedge for one slow primary";
  // The driver's issued-read count covers the primary plus the hedge, so
  // the hedge rate derived from stats() (hedges / reads) is 1/2 here.
  EXPECT_EQ(f.driver->stats().reads_issued - reads_before, 2u);
  EXPECT_EQ(f.driver->stats().read_failures, 0u);
  EXPECT_EQ(f.driver->read_latency().count(), 1u)
      << "one read completes once, however many copies were issued";
}

TEST(StorageDriver, ReadFailsCleanlyWhenAllSegmentsDown) {
  Fixture f;
  f.driver->SubmitRecords({f.Record(1, 7)});
  f.sim.RunFor(50 * kMillisecond);
  for (int i = 0; i < 6; ++i) f.network->Crash(100 + i);
  bool done = false;
  f.driver->ReadBlock(7, 1, kInvalidLsn, [&](Result<storage::Page> page) {
    EXPECT_FALSE(page.ok());
    done = true;
  });
  f.sim.RunFor(30 * kSecond);
  EXPECT_TRUE(done) << "exhaustion must be reported, not hung";
}

TEST(StorageDriver, DualQuorumNeedsBothCandidateSets) {
  Fixture f;
  // Install the dual-quorum config (F suspected, G added) at the driver.
  quorum::SegmentInfo g{6, 110, 2, true};
  auto mid = f.config.BeginReplace(5, g);
  ASSERT_TRUE(mid.ok());
  // Host G.
  f.nodes.push_back(std::make_unique<storage::StorageNode>(
      &f.sim, f.network.get(), 110, 2, f.object_store.get(),
      storage::StorageNodeOptions{.background_enabled = false}));
  f.nodes.back()->AddSegment(g, 0, *mid, 1, /*hydrated=*/false);
  f.driver->UpdatePgConfig(*mid);
  // Crash E and F: survivors are ABCD + G. ABCD alone satisfies BOTH
  // 4/6 clauses (§4.1), so VCL still advances.
  f.network->Crash(104);
  f.network->Crash(105);
  f.driver->SubmitRecords({f.Record(1)});
  f.sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(f.driver->tracker().vcl(), 1u);
}

// Every write request carries the instance's minimum read point clamped
// to the group's PGCL, so segments learn the floor without any reads.
TEST(StorageDriver, WritesCarryFloorClampedToPgcl) {
  Fixture f;
  f.driver->SetPgmrplSource([]() { return Lsn{50}; });
  f.driver->SubmitRecords({f.Record(1)});
  f.sim.RunFor(50 * kMillisecond);
  f.driver->SubmitRecords({f.Record(2)});
  f.sim.RunFor(50 * kMillisecond);
  for (auto& node : f.nodes) {
    // Sent while PGCL was 1: the floor never passes the group's own
    // completion point, however far ahead the instance's read point is.
    EXPECT_EQ(node->segments().begin()->second->pgmrpl(), 1u);
  }
}

TEST(StorageNode, StaleEpochWriteDoesNotMoveFloor) {
  Fixture f;
  storage::StorageNode* node = f.nodes.front().get();
  storage::SegmentStore* segment = node->segments().begin()->second.get();
  storage::WriteRequest request;
  request.segment = segment->id();
  request.epochs = EpochVector{0, 1};  // volume epoch 0 < 1: fenced
  request.records = {f.Record(1)};
  request.pgmrpl = 42;
  Status fenced;
  node->HandleWrite(request, [&](storage::WriteAck ack) {
    fenced = ack.status;
  });
  EXPECT_TRUE(fenced.IsStaleEpoch());
  EXPECT_EQ(segment->pgmrpl(), kInvalidLsn);
  // The same request at the current epochs moves it.
  request.epochs = EpochVector{1, 1};
  node->HandleWrite(request, [](storage::WriteAck) {});
  EXPECT_EQ(segment->pgmrpl(), 42u);
}

}  // namespace
}  // namespace aurora::engine
