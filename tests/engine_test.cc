// Unit tests for the engine: the consistency tracker (including the exact
// Figure-3 scenario), the buffer cache WAL rule, and the read router.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/engine/buffer_cache.h"
#include "src/engine/consistency_tracker.h"
#include "src/engine/read_router.h"
#include "src/quorum/membership.h"

namespace aurora::engine {
namespace {

quorum::QuorumSet FourOfSix(SegmentId base) {
  return quorum::QuorumSet::KofN(
      4, {base, base + 1, base + 2, base + 3, base + 4, base + 5});
}

std::vector<SegmentId> Members(SegmentId base) {
  return {base, base + 1, base + 2, base + 3, base + 4, base + 5};
}

// ---------------------------------------------------------------------- //
// ConsistencyTracker

TEST(ConsistencyTracker, PgclNeedsWriteQuorum) {
  ConsistencyTracker tracker;
  tracker.ConfigurePg(0, FourOfSix(0), Members(0));
  tracker.RecordIssued(0, 1);
  tracker.SetMaxAllocated(1);
  for (SegmentId s = 0; s < 3; ++s) tracker.ObserveScl(0, s, 1);
  tracker.Advance();
  EXPECT_EQ(tracker.pgcl(0), kInvalidLsn) << "3 of 6 is not a write quorum";
  tracker.ObserveScl(0, 3, 1);
  tracker.Advance();
  EXPECT_EQ(tracker.pgcl(0), 1u);
  EXPECT_EQ(tracker.vcl(), 1u);
}

TEST(ConsistencyTracker, Figure3Scenario) {
  // Figure 3: odd LSNs -> PG1, even LSNs -> PG2. 105 and 106 have not met
  // quorum. Expected: PGCL(PG1)=103, PGCL(PG2)=104, VCL=104.
  ConsistencyTracker tracker;
  tracker.ConfigurePg(1, FourOfSix(0), Members(0));
  tracker.ConfigurePg(2, FourOfSix(6), Members(6));
  for (Lsn lsn : {101, 103, 105}) tracker.RecordIssued(1, lsn);
  for (Lsn lsn : {102, 104, 106}) tracker.RecordIssued(2, lsn);
  tracker.SetMaxAllocated(106);
  // PG1: quorum (4 segments) has SCL 103; the other two have 105.
  for (SegmentId s = 0; s < 4; ++s) tracker.ObserveScl(1, s, 103);
  for (SegmentId s = 4; s < 6; ++s) tracker.ObserveScl(1, s, 105);
  // PG2: quorum has SCL 104; one has 106.
  for (SegmentId s = 6; s < 10; ++s) tracker.ObserveScl(2, s, 104);
  tracker.ObserveScl(2, 10, 106);
  tracker.Advance();
  EXPECT_EQ(tracker.pgcl(1), 103u);
  EXPECT_EQ(tracker.pgcl(2), 104u);
  EXPECT_EQ(tracker.vcl(), 104u)
      << "highest point at which all previous records met quorum";
}

TEST(ConsistencyTracker, VclWaitsForGapsAcrossPgs) {
  ConsistencyTracker tracker;
  tracker.ConfigurePg(0, FourOfSix(0), Members(0));
  tracker.ConfigurePg(1, FourOfSix(6), Members(6));
  tracker.RecordIssued(0, 1);
  tracker.RecordIssued(1, 2);
  tracker.RecordIssued(0, 3);
  tracker.SetMaxAllocated(3);
  // PG1 record (lsn 2) durable everywhere, PG0 has nothing yet.
  for (SegmentId s = 6; s < 12; ++s) tracker.ObserveScl(1, s, 2);
  tracker.Advance();
  EXPECT_EQ(tracker.vcl(), kInvalidLsn) << "lsn 1 (PG0) still outstanding";
  for (SegmentId s = 0; s < 4; ++s) tracker.ObserveScl(0, s, 1);
  tracker.Advance();
  EXPECT_EQ(tracker.vcl(), 2u) << "lsn 3 still outstanding";
  for (SegmentId s = 0; s < 4; ++s) tracker.ObserveScl(0, s, 3);
  tracker.Advance();
  EXPECT_EQ(tracker.vcl(), 3u);
}

TEST(ConsistencyTracker, VdlTracksMtrBoundaries) {
  ConsistencyTracker tracker;
  tracker.ConfigurePg(0, FourOfSix(0), Members(0));
  // MTR spanning LSNs 1-3 (complete at 3) and 4-5 (complete at 5).
  for (Lsn lsn = 1; lsn <= 5; ++lsn) tracker.RecordIssued(0, lsn);
  tracker.SetMaxAllocated(5);
  tracker.RecordMtrComplete(3);
  tracker.RecordMtrComplete(5);
  for (SegmentId s = 0; s < 4; ++s) tracker.ObserveScl(0, s, 4);
  tracker.Advance();
  EXPECT_EQ(tracker.vcl(), 4u);
  EXPECT_EQ(tracker.vdl(), 3u) << "VDL is the last MTR completion <= VCL";
  for (SegmentId s = 0; s < 4; ++s) tracker.ObserveScl(0, s, 5);
  tracker.Advance();
  EXPECT_EQ(tracker.vdl(), 5u);
}

TEST(ConsistencyTracker, MonotoneUnderStaleAcks) {
  ConsistencyTracker tracker;
  tracker.ConfigurePg(0, FourOfSix(0), Members(0));
  tracker.RecordIssued(0, 1);
  tracker.SetMaxAllocated(1);
  for (SegmentId s = 0; s < 6; ++s) tracker.ObserveScl(0, s, 1);
  tracker.Advance();
  EXPECT_EQ(tracker.vcl(), 1u);
  // A stale (lower) SCL observation must not regress anything.
  tracker.ObserveScl(0, 0, 0);
  tracker.Advance();
  EXPECT_EQ(tracker.vcl(), 1u);
  EXPECT_EQ(tracker.pgcl(0), 1u);
}

TEST(ConsistencyTracker, MembershipChangeReconfigures) {
  ConsistencyTracker tracker;
  tracker.ConfigurePg(0, FourOfSix(0), Members(0));
  tracker.RecordIssued(0, 1);
  tracker.SetMaxAllocated(1);
  for (SegmentId s = 0; s < 6; ++s) tracker.ObserveScl(0, s, 1);
  tracker.Advance();
  // Dual-quorum phase: write set requires 4/6 of BOTH candidate sets.
  auto dual = quorum::QuorumSet::And(
      {quorum::QuorumSet::KofN(4, {0, 1, 2, 3, 4, 5}),
       quorum::QuorumSet::KofN(4, {0, 1, 2, 3, 4, 6})});
  tracker.ConfigurePg(0, dual, {0, 1, 2, 3, 4, 5, 6});
  tracker.RecordIssued(0, 2);
  tracker.SetMaxAllocated(2);
  for (SegmentId s = 0; s < 4; ++s) tracker.ObserveScl(0, s, 2);
  tracker.Advance();
  EXPECT_EQ(tracker.vcl(), 2u) << "ABCD satisfies both 4/6 clauses";
}

TEST(ConsistencyTracker, ResetInstallsRecoveredPoints) {
  ConsistencyTracker tracker;
  tracker.ConfigurePg(0, FourOfSix(0), Members(0));
  tracker.Reset(500, 480, 500);
  EXPECT_EQ(tracker.vcl(), 500u);
  EXPECT_EQ(tracker.vdl(), 480u);
  // New work above the recovered points advances normally.
  tracker.RecordIssued(0, 1000);
  tracker.SetMaxAllocated(1000);
  tracker.RecordMtrComplete(1000);
  for (SegmentId s = 0; s < 4; ++s) tracker.ObserveScl(0, s, 1000);
  tracker.Advance();
  EXPECT_EQ(tracker.vcl(), 1000u);
  EXPECT_EQ(tracker.vdl(), 1000u);
}

// The tracker recomputes PGCL only for PGs whose SCLs or quorum shape
// changed. This reference recomputes every PG on every Advance() straight
// from the definition (§2.3): PGCL is the highest SCL that a write quorum
// of members has reached.
class RecomputeEveryPgTracker {
 public:
  void ConfigurePg(ProtectionGroupId pg, quorum::QuorumSet write_set,
                   const std::vector<SegmentId>& members) {
    Pg& state = pgs_[pg];
    state.write_set = std::move(write_set);
    std::map<SegmentId, Lsn> kept;
    for (SegmentId m : members) {
      if (state.scls.count(m) != 0) kept[m] = state.scls[m];
    }
    state.scls = std::move(kept);
  }
  void ObserveScl(ProtectionGroupId pg, SegmentId segment, Lsn scl) {
    auto it = pgs_.find(pg);
    if (it == pgs_.end()) return;
    Lsn& known = it->second.scls[segment];
    known = std::max(known, scl);
  }
  void RecordIssued(ProtectionGroupId pg, Lsn lsn) {
    auto it = pgs_.find(pg);
    if (it != pgs_.end() && lsn > it->second.pgcl) {
      it->second.outstanding.insert(lsn);
    }
  }
  void RecordMtrComplete(Lsn lsn) { mtr_points_.insert(lsn); }
  void SetMaxAllocated(Lsn lsn) { max_allocated_ = std::max(max_allocated_, lsn); }
  bool Advance() {
    const Lsn old_vcl = vcl_;
    const Lsn old_vdl = vdl_;
    Lsn bound = max_allocated_;
    for (auto& [pg, state] : pgs_) {
      Lsn pgcl = kInvalidLsn;
      for (const auto& [segment, x] : state.scls) {
        if (x <= pgcl) continue;
        quorum::SegmentSet at_or_above;
        for (const auto& [other, scl] : state.scls) {
          if (scl >= x) at_or_above.insert(other);
        }
        if (state.write_set.SatisfiedBy(at_or_above)) pgcl = x;
      }
      state.pgcl = std::max(state.pgcl, pgcl);
      state.outstanding.erase(state.outstanding.begin(),
                              state.outstanding.upper_bound(state.pgcl));
      if (!state.outstanding.empty()) {
        bound = std::min(bound, *state.outstanding.begin() - 1);
      }
    }
    vcl_ = std::max(vcl_, bound);
    auto passed = mtr_points_.upper_bound(vcl_);
    if (passed != mtr_points_.begin()) {
      vdl_ = std::max(vdl_, *std::prev(passed));
      mtr_points_.erase(mtr_points_.begin(), passed);
    }
    return vcl_ != old_vcl || vdl_ != old_vdl;
  }
  void Reset(Lsn vcl, Lsn vdl, Lsn max_allocated) {
    for (auto& [pg, state] : pgs_) {
      state.outstanding.clear();
      state.pgcl = kInvalidLsn;
      state.scls.clear();
    }
    mtr_points_.clear();
    vcl_ = vcl;
    vdl_ = vdl;
    max_allocated_ = max_allocated;
  }
  void SeedPgcl(ProtectionGroupId pg, Lsn pgcl) {
    auto it = pgs_.find(pg);
    if (it != pgs_.end()) it->second.pgcl = std::max(it->second.pgcl, pgcl);
  }
  Lsn pgcl(ProtectionGroupId pg) const { return pgs_.at(pg).pgcl; }
  Lsn vcl() const { return vcl_; }
  Lsn vdl() const { return vdl_; }

 private:
  struct Pg {
    quorum::QuorumSet write_set;
    std::map<SegmentId, Lsn> scls;
    std::set<Lsn> outstanding;
    Lsn pgcl = kInvalidLsn;
  };
  std::map<ProtectionGroupId, Pg> pgs_;
  std::set<Lsn> mtr_points_;
  Lsn vcl_ = kInvalidLsn;
  Lsn vdl_ = kInvalidLsn;
  Lsn max_allocated_ = kInvalidLsn;
};

TEST(ConsistencyTracker, IncrementalMatchesRecomputeEveryPg) {
  constexpr ProtectionGroupId kPgs = 3;
  size_t pgcl_moves = 0;
  size_t dual_quorum_steps = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ConsistencyTracker tracker;
    RecomputeEveryPgTracker reference;
    // Each PG walks Figure-5 transitions; a PG mid-change has a dual
    // quorum and seven members.
    std::vector<quorum::PgConfig> configs;
    std::vector<SegmentId> replaced(kPgs, kInvalidSegment);
    std::vector<std::vector<SegmentId>> ever(kPgs);
    SegmentId next_segment = 1;
    auto configure = [&](ProtectionGroupId pg) {
      std::vector<SegmentId> members;
      for (const auto& m : configs[pg].AllMembers()) members.push_back(m.id);
      tracker.ConfigurePg(pg, configs[pg].WriteSet(), members);
      reference.ConfigurePg(pg, configs[pg].WriteSet(), members);
    };
    auto fresh_segment = [&](ProtectionGroupId pg) {
      quorum::SegmentInfo info;
      info.id = next_segment++;
      info.node = info.id;
      info.az = static_cast<AzId>(info.id % 3);
      ever[pg].push_back(info.id);
      return info;
    };
    for (ProtectionGroupId pg = 0; pg < kPgs; ++pg) {
      std::vector<quorum::SegmentInfo> six;
      for (int i = 0; i < 6; ++i) six.push_back(fresh_segment(pg));
      configs.push_back(quorum::PgConfig::Create(
          pg, quorum::QuorumModel::kUniform46, std::move(six)));
      configure(pg);
    }
    Lsn next_lsn = 0;
    std::map<SegmentId, Lsn> last_sent;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const ProtectionGroupId pg = rng.NextBounded(kPgs);
      for (uint64_t n = 1 + rng.NextBounded(3); n > 0; --n) {
        const uint64_t kind = rng.NextBounded(20);
        if (kind < 6) {
          const Lsn lsn = ++next_lsn;
          const ProtectionGroupId target = rng.NextBounded(kPgs);
          tracker.SetMaxAllocated(lsn);
          reference.SetMaxAllocated(lsn);
          tracker.RecordIssued(target, lsn);
          reference.RecordIssued(target, lsn);
          if (rng.Bernoulli(0.5)) {
            tracker.RecordMtrComplete(lsn);
            reference.RecordMtrComplete(lsn);
          }
        } else if (kind < 16) {
          // Acks: mostly a current member catching up, sometimes a
          // repeated or lower SCL, or a late ack from a departed member.
          const auto& candidates = ever[pg];
          const SegmentId segment =
              candidates[rng.NextBounded(candidates.size())];
          Lsn scl = next_lsn - std::min<Lsn>(next_lsn, rng.NextBounded(6));
          if (rng.Bernoulli(0.2)) scl = last_sent[segment];
          if (rng.Bernoulli(0.1)) scl = rng.NextBounded(next_lsn + 1);
          last_sent[segment] = scl;
          tracker.ObserveScl(pg, segment, scl);
          reference.ObserveScl(pg, segment, scl);
        } else if (kind < 19) {
          // Figure 5: begin a replacement, then commit or revert it.
          Result<quorum::PgConfig> next = configs[pg];
          if (replaced[pg] == kInvalidSegment) {
            const auto members = configs[pg].AllMembers();
            const SegmentId old_id =
                members[rng.NextBounded(members.size())].id;
            next = configs[pg].BeginReplace(old_id, fresh_segment(pg));
            if (next.ok()) replaced[pg] = old_id;
          } else {
            next = rng.Bernoulli(0.5)
                       ? configs[pg].CommitReplace(replaced[pg])
                       : configs[pg].RevertReplace(replaced[pg]);
            replaced[pg] = kInvalidSegment;
          }
          ASSERT_TRUE(next.ok()) << next.status().ToString();
          configs[pg] = *next;
          configure(pg);
        } else {
          // Crash recovery installs recovered points, then seeds each
          // group's completion point; new LSNs start above a gap.
          const Lsn vcl = reference.vcl() + rng.NextBounded(4);
          const Lsn vdl = vcl - std::min<Lsn>(vcl, rng.NextBounded(3));
          next_lsn = std::max(next_lsn, vcl) + 8;
          tracker.Reset(vcl, vdl, next_lsn);
          reference.Reset(vcl, vdl, next_lsn);
          for (ProtectionGroupId seeded = 0; seeded < kPgs; ++seeded) {
            const Lsn pgcl = vcl - std::min<Lsn>(vcl, rng.NextBounded(5));
            tracker.SeedPgcl(seeded, pgcl);
            reference.SeedPgcl(seeded, pgcl);
          }
        }
      }
      const Lsn pgcl_before = reference.pgcl(pg);
      ASSERT_EQ(tracker.Advance(), reference.Advance());
      for (ProtectionGroupId each = 0; each < kPgs; ++each) {
        ASSERT_EQ(tracker.pgcl(each), reference.pgcl(each)) << "pg " << each;
      }
      ASSERT_EQ(tracker.vcl(), reference.vcl());
      ASSERT_EQ(tracker.vdl(), reference.vdl());
      if (reference.pgcl(pg) != pgcl_before) pgcl_moves++;
      if (replaced[pg] != kInvalidSegment) dual_quorum_steps++;
    }
  }
  // The walk really exercised quorum movement and dual-quorum shapes.
  EXPECT_GT(pgcl_moves, 200u);
  EXPECT_GT(dual_quorum_steps, 1000u);
}

// ---------------------------------------------------------------------- //
// BufferCache (WAL rule)

storage::Page MakePage(BlockId id, Lsn lsn) {
  storage::Page page;
  page.id = id;
  page.page_lsn = lsn;
  page.type = storage::PageType::kLeaf;
  return page;
}

TEST(BufferCache, HitMissAccounting) {
  BufferCache cache(4);
  cache.Insert(MakePage(1, 10), /*vdl=*/100);
  EXPECT_NE(cache.Find(1), nullptr);
  EXPECT_EQ(cache.Find(2), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(BufferCache, EvictsLruCleanPages) {
  BufferCache cache(2);
  cache.Insert(MakePage(1, 10), 100);
  cache.Insert(MakePage(2, 20), 100);
  cache.Find(1);  // promote 1; LRU order: 2, 1
  cache.Insert(MakePage(3, 30), 100);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Peek(2), nullptr) << "page 2 was LRU";
  EXPECT_NE(cache.Peek(1), nullptr);
}

TEST(BufferCache, WalRulePinsDirtyPages) {
  BufferCache cache(2);
  // Pages 1 and 2 have redo above VDL=15: they may NOT be evicted.
  cache.Insert(MakePage(1, 20), /*vdl=*/15);
  cache.Insert(MakePage(2, 30), 15);
  cache.Insert(MakePage(3, 10), 15);
  EXPECT_EQ(cache.Size(), 3u) << "over capacity but nothing evictable";
  EXPECT_GT(cache.stats().wal_blocked_evictions, 0u);
  // VDL advances past their LSNs: now they can go.
  cache.TrimToCapacity(/*vdl=*/40);
  EXPECT_EQ(cache.Size(), 2u);
}

TEST(BufferCache, InsertReplacesInPlace) {
  BufferCache cache(4);
  cache.Insert(MakePage(1, 10), 100);
  cache.Insert(MakePage(1, 20), 100);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.Peek(1)->page_lsn, 20u);
}

TEST(BufferCache, EraseAndClear) {
  BufferCache cache(4);
  cache.Insert(MakePage(1, 10), 100);
  cache.Erase(1);
  EXPECT_EQ(cache.Size(), 0u);
  cache.Insert(MakePage(2, 10), 100);
  cache.Clear();
  EXPECT_EQ(cache.Size(), 0u);
}

// ---------------------------------------------------------------------- //
// ReadRouter

TEST(ReadRouter, RanksByObservedLatency) {
  ReadRouterOptions options;
  options.explore_probability = 0.0;
  ReadRouter router(options);
  Rng rng(1);
  router.ObserveLatency(1, 1000);
  router.ObserveLatency(2, 200);
  router.ObserveLatency(3, 500);
  auto ranked = router.Rank({1, 2, 3}, rng);
  EXPECT_EQ(ranked, (std::vector<SegmentId>{2, 3, 1}));
}

TEST(ReadRouter, EwmaSmoothsObservations) {
  ReadRouter router;
  router.ObserveLatency(1, 100);
  router.ObserveLatency(1, 200);
  const SimDuration expected = router.ExpectedLatency(1);
  EXPECT_GT(expected, 100);
  EXPECT_LT(expected, 200);
}

TEST(ReadRouter, PenaltyDeprioritizes) {
  ReadRouterOptions options;
  options.explore_probability = 0.0;
  ReadRouter router(options);
  Rng rng(1);
  router.ObserveLatency(1, 100);
  router.ObserveLatency(2, 150);
  router.Penalize(1);
  auto ranked = router.Rank({1, 2}, rng);
  EXPECT_EQ(ranked[0], 2u);
  // A fresh success rehabilitates.
  router.ObserveLatency(1, 100);
  // EWMA pulls back down over a few observations.
  router.ObserveLatency(1, 100);
  router.ObserveLatency(1, 100);
  router.ObserveLatency(1, 100);
  router.ObserveLatency(1, 100);
  router.ObserveLatency(1, 100);
  router.ObserveLatency(1, 100);
  router.ObserveLatency(1, 100);
  ranked = router.Rank({1, 2}, rng);
  EXPECT_EQ(ranked[0], 1u);
}

TEST(ReadRouter, HedgeDelayClamped) {
  ReadRouterOptions options;
  options.min_hedge_delay = 500;
  options.max_hedge_delay = 10000;
  options.hedge_multiplier = 3.0;
  ReadRouter router(options);
  router.ObserveLatency(1, 10);  // 3x = 30 -> clamped up
  EXPECT_EQ(router.HedgeDelay(1), 500);
  router.ObserveLatency(2, 100000);  // 3x = 300000 -> clamped down
  EXPECT_EQ(router.HedgeDelay(2), 10000);
}

TEST(ReadRouter, ExplorationOccasionallySwapsSecond) {
  ReadRouterOptions options;
  options.explore_probability = 1.0;  // force it
  ReadRouter router(options);
  Rng rng(1);
  router.ObserveLatency(1, 100);
  router.ObserveLatency(2, 200);
  auto ranked = router.Rank({1, 2}, rng);
  EXPECT_EQ(ranked[0], 2u) << "explore swaps the second-best to the front";
}

}  // namespace
}  // namespace aurora::engine
