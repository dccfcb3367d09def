// Unit + property tests for the quorum layer: quorum-set algebra, the
// exhaustive overlap prover, the 4/6 and full/tail constructions, the
// two-step membership state machine (Figure 5), and volume geometry.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "src/common/random.h"
#include "src/quorum/geometry.h"
#include "src/quorum/membership.h"
#include "src/quorum/quorum_set.h"

namespace aurora::quorum {
namespace {

std::vector<SegmentInfo> SixSegments(bool full_tail = false) {
  std::vector<SegmentInfo> members;
  for (SegmentId id = 0; id < 6; ++id) {
    SegmentInfo info;
    info.id = id;
    info.node = 100 + id;
    info.az = id / 2;
    info.is_full = full_tail ? (id % 2 == 0) : true;
    members.push_back(info);
  }
  return members;
}

// ---------------------------------------------------------------------- //
// QuorumSet algebra

TEST(QuorumSet, KofNSatisfaction) {
  auto q = QuorumSet::KofN(2, {1, 2, 3});
  EXPECT_FALSE(q.SatisfiedBy(SegmentSet{}));
  EXPECT_FALSE(q.SatisfiedBy({1}));
  EXPECT_TRUE(q.SatisfiedBy({1, 3}));
  EXPECT_TRUE(q.SatisfiedBy({1, 2, 3}));
  EXPECT_FALSE(q.SatisfiedBy({4, 5}));
}

TEST(QuorumSet, AndOrComposition) {
  auto a = QuorumSet::KofN(1, {1, 2});
  auto b = QuorumSet::KofN(1, {3, 4});
  auto both = QuorumSet::And({a, b});
  auto either = QuorumSet::Or({a, b});
  EXPECT_TRUE(both.SatisfiedBy({1, 3}));
  EXPECT_FALSE(both.SatisfiedBy({1, 2}));
  EXPECT_TRUE(either.SatisfiedBy({1}));
  EXPECT_TRUE(either.SatisfiedBy({4}));
  EXPECT_FALSE(either.SatisfiedBy({5}));
}

TEST(QuorumSet, UniverseCollectsAllMembers) {
  auto q = QuorumSet::And(
      {QuorumSet::KofN(1, {1, 2}), QuorumSet::KofN(1, {2, 3})});
  EXPECT_EQ(q.Universe(), (SegmentSet{1, 2, 3}));
}

TEST(QuorumSet, PaperRule1ReadWriteOverlap) {
  // Vr + Vw > V: 3/6 reads always intersect 4/6 writes.
  std::vector<SegmentId> all = {0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(QuorumSet::AlwaysOverlaps(QuorumSet::KofN(3, all),
                                        QuorumSet::KofN(4, all)));
  // 2/6 reads do NOT.
  EXPECT_FALSE(QuorumSet::AlwaysOverlaps(QuorumSet::KofN(2, all),
                                         QuorumSet::KofN(4, all)));
}

TEST(QuorumSet, PaperRule2WriteWriteOverlap) {
  std::vector<SegmentId> all = {0, 1, 2, 3, 4, 5};
  // Vw > V/2: 4/6 writes always intersect each other; 3/6 do not.
  EXPECT_TRUE(QuorumSet::AlwaysOverlaps(QuorumSet::KofN(4, all),
                                        QuorumSet::KofN(4, all)));
  EXPECT_FALSE(QuorumSet::AlwaysOverlaps(QuorumSet::KofN(3, all),
                                         QuorumSet::KofN(3, all)));
}

TEST(QuorumSet, FullTailOverlap) {
  // §4.2: write = 4/6 ∨ 3/3 full; read = 3/6 ∧ 1/3 full. These must obey
  // both quorum rules.
  std::vector<SegmentId> all = {0, 1, 2, 3, 4, 5};
  std::vector<SegmentId> fulls = {0, 2, 4};
  auto write = QuorumSet::Or(
      {QuorumSet::KofN(4, all), QuorumSet::KofN(3, fulls)});
  auto read = QuorumSet::And(
      {QuorumSet::KofN(3, all), QuorumSet::KofN(1, fulls)});
  EXPECT_TRUE(QuorumSet::AlwaysOverlaps(read, write));
  EXPECT_TRUE(QuorumSet::AlwaysOverlaps(write, write));
  // Plain 3/6 reads would NOT suffice against the 3/3-full write branch.
  EXPECT_FALSE(QuorumSet::AlwaysOverlaps(QuorumSet::KofN(3, all), write));
}

TEST(QuorumSet, Figure5DualQuorumOverlap) {
  // Mid-change: write = 4/6 ABCDEF ∧ 4/6 ABCDEG; read = 3/6 ∨ 3/6.
  std::vector<SegmentId> abcdef = {0, 1, 2, 3, 4, 5};
  std::vector<SegmentId> abcdeg = {0, 1, 2, 3, 4, 6};
  auto write = QuorumSet::And(
      {QuorumSet::KofN(4, abcdef), QuorumSet::KofN(4, abcdeg)});
  auto read = QuorumSet::Or(
      {QuorumSet::KofN(3, abcdef), QuorumSet::KofN(3, abcdeg)});
  EXPECT_TRUE(QuorumSet::AlwaysOverlaps(read, write));
  // Writing to just ABCD meets the dual quorum (§4.1).
  EXPECT_TRUE(write.SatisfiedBy({0, 1, 2, 3}));
  // New write set overlaps the OLD write set (rule 2 across transition).
  EXPECT_TRUE(QuorumSet::AlwaysOverlaps(write, QuorumSet::KofN(4, abcdef)));
}

TEST(QuorumSet, MemberListEvalMatchesSetReferenceOnEverySubset) {
  // Every subset of each shape's universe (plus one id outside it), fed as
  // a member list in descending order with a duplicate, must give the
  // answer of a std::set reference written straight from §2.1 / §4.1 /
  // §4.2.
  auto count_in = [](const std::set<SegmentId>& s,
                     const std::vector<SegmentId>& members) {
    return std::count_if(members.begin(), members.end(),
                         [&](SegmentId m) { return s.contains(m); });
  };
  const std::vector<SegmentId> abcdef = {0, 1, 2, 3, 4, 5};
  const std::vector<SegmentId> abcdeg = {0, 1, 2, 3, 4, 6};
  const std::vector<SegmentId> fulls = {0, 2, 4};  // SixSegments(true)
  const auto stable =
      PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  const auto dual = stable.BeginReplace(5, SegmentInfo{6, 110, 2, true});
  ASSERT_TRUE(dual.ok());
  const auto full_tail =
      PgConfig::Create(0, QuorumModel::kFullTail, SixSegments(true));
  struct Shape {
    const char* name;
    QuorumSet quorum;
    std::function<bool(const std::set<SegmentId>&)> reference;
  };
  const std::vector<Shape> shapes = {
      {"4/6 write", stable.WriteSet(),
       [&](const auto& s) { return count_in(s, abcdef) >= 4; }},
      {"4/6 read", stable.ReadSet(),
       [&](const auto& s) { return count_in(s, abcdef) >= 3; }},
      {"Figure-5 dual write", dual->WriteSet(),
       [&](const auto& s) {
         return count_in(s, abcdef) >= 4 && count_in(s, abcdeg) >= 4;
       }},
      {"Figure-5 dual read", dual->ReadSet(),
       [&](const auto& s) {
         return count_in(s, abcdef) >= 3 || count_in(s, abcdeg) >= 3;
       }},
      {"3 full + 3 tail write", full_tail.WriteSet(),
       [&](const auto& s) {
         return count_in(s, abcdef) >= 4 || count_in(s, fulls) == 3;
       }},
      {"3 full + 3 tail read", full_tail.ReadSet(),
       [&](const auto& s) {
         return count_in(s, abcdef) >= 3 && count_in(s, fulls) >= 1;
       }},
  };
  for (const Shape& shape : shapes) {
    SegmentSet universe = shape.quorum.Universe();
    universe.insert(99);
    const std::vector<SegmentId> ids(universe.begin(), universe.end());
    size_t satisfied = 0;
    for (uint64_t mask = 0; mask < (1ULL << ids.size()); ++mask) {
      std::set<SegmentId> s;
      std::vector<SegmentId> members;
      for (size_t i = ids.size(); i-- > 0;) {
        if ((mask & (1ULL << i)) == 0) continue;
        s.insert(ids[i]);
        members.push_back(ids[i]);
      }
      if (!members.empty()) members.push_back(members.front());
      const bool expected = shape.reference(s);
      ASSERT_EQ(shape.quorum.SatisfiedBy(members), expected)
          << shape.name << " " << shape.quorum.ToString() << " mask " << mask;
      ASSERT_EQ(shape.quorum.SatisfiedBy(s), expected)
          << shape.name << " mask " << mask;
      satisfied += expected;
    }
    // Neither trivially true nor trivially false.
    EXPECT_GT(satisfied, 0u) << shape.name;
    EXPECT_LT(satisfied, 1ULL << ids.size()) << shape.name;
  }
}

TEST(QuorumSet, ImpliesDetectsStrictness) {
  std::vector<SegmentId> all = {0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(QuorumSet::Implies(QuorumSet::KofN(5, all),
                                 QuorumSet::KofN(4, all)));
  EXPECT_FALSE(QuorumSet::Implies(QuorumSet::KofN(4, all),
                                  QuorumSet::KofN(5, all)));
}

TEST(QuorumSet, ToStringIsReadable) {
  auto q = QuorumSet::And({QuorumSet::KofN(4, {0, 1, 2, 3, 4, 5}),
                           QuorumSet::KofN(4, {0, 1, 2, 3, 4, 6})});
  EXPECT_EQ(q.ToString(), "(4/{0,1,2,3,4,5} AND 4/{0,1,2,3,4,6})");
}

// ---------------------------------------------------------------------- //
// PgConfig & membership transitions

TEST(PgConfig, StandardQuorums) {
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  EXPECT_EQ(config.epoch(), 1u);
  EXPECT_FALSE(config.HasPendingChange());
  EXPECT_TRUE(config.WriteSet().SatisfiedBy({0, 1, 2, 3}));
  EXPECT_FALSE(config.WriteSet().SatisfiedBy({0, 1, 2}));
  EXPECT_TRUE(config.ReadSet().SatisfiedBy({3, 4, 5}));
  EXPECT_FALSE(config.ReadSet().SatisfiedBy({4, 5}));
}

TEST(PgConfig, AzPlusOneFailureSurvives) {
  // Figure 1: lose one AZ (2 segments) plus one more node; reads survive,
  // writes survive AZ-only loss.
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  SegmentSet after_az_loss = {2, 3, 4, 5};  // AZ0 (segments 0,1) down
  EXPECT_TRUE(config.WriteSet().SatisfiedBy(after_az_loss));
  SegmentSet az_plus_one = {3, 4, 5};
  EXPECT_FALSE(config.WriteSet().SatisfiedBy(az_plus_one))
      << "AZ+1 breaks write quorum";
  EXPECT_TRUE(config.ReadSet().SatisfiedBy(az_plus_one))
      << "AZ+1 preserves read quorum (repair possible)";
}

TEST(PgConfig, BeginReplaceCreatesDualSlot) {
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  SegmentInfo g{6, 110, 2, true};
  auto next = config.BeginReplace(5, g);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->epoch(), 2u);
  EXPECT_TRUE(next->HasPendingChange());
  EXPECT_EQ(next->CandidateMemberships().size(), 2u);
  EXPECT_TRUE(TransitionIsSafe(config, *next));
}

TEST(PgConfig, CommitAndRevertBothReachable) {
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  SegmentInfo g{6, 110, 2, true};
  auto mid = config.BeginReplace(5, g);
  ASSERT_TRUE(mid.ok());

  auto committed = mid->CommitReplace(5);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->epoch(), 3u);
  EXPECT_FALSE(committed->ContainsSegment(5));
  EXPECT_TRUE(committed->ContainsSegment(6));
  EXPECT_TRUE(TransitionIsSafe(*mid, *committed));

  auto reverted = mid->RevertReplace(5);
  ASSERT_TRUE(reverted.ok());
  EXPECT_EQ(reverted->epoch(), 3u);
  EXPECT_TRUE(reverted->ContainsSegment(5));
  EXPECT_FALSE(reverted->ContainsSegment(6));
  EXPECT_TRUE(TransitionIsSafe(*mid, *reverted));
}

TEST(PgConfig, DoubleFailureFourCandidates) {
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  auto with_g = config.BeginReplace(5, SegmentInfo{6, 110, 2, true});
  ASSERT_TRUE(with_g.ok());
  auto with_h = with_g->BeginReplace(4, SegmentInfo{7, 111, 2, true});
  ASSERT_TRUE(with_h.ok());
  EXPECT_EQ(with_h->CandidateMemberships().size(), 4u);
  EXPECT_TRUE(TransitionIsSafe(*with_g, *with_h));
  // "Simply writing to the four members ABCD meets quorum" (§4.1).
  EXPECT_TRUE(with_h->WriteSet().SatisfiedBy({0, 1, 2, 3}));
}

TEST(PgConfig, InvalidTransitionsRejected) {
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  EXPECT_TRUE(config.BeginReplace(99, SegmentInfo{6, 110, 2, true})
                  .status().IsNotFound());
  EXPECT_TRUE(config.BeginReplace(5, SegmentInfo{0, 110, 2, true})
                  .status()
                  .code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(config.CommitReplace(5).status().IsNotFound());
  auto mid = config.BeginReplace(5, SegmentInfo{6, 110, 2, true});
  EXPECT_TRUE(mid->BeginReplace(5, SegmentInfo{7, 111, 2, true})
                  .status().IsConflict());
}

TEST(PgConfig, ReplacementInheritsDurabilityClass) {
  auto config = PgConfig::Create(0, QuorumModel::kFullTail,
                                 SixSegments(/*full_tail=*/true));
  // Segment 1 is a tail; the replacement is forced to tail as well so
  // the full/tail quorum math survives the change.
  SegmentInfo g{6, 110, 0, /*is_full=*/true};
  auto next = config.BeginReplace(1, g);
  ASSERT_TRUE(next.ok());
  const SegmentInfo* installed = next->FindSegment(6);
  ASSERT_NE(installed, nullptr);
  EXPECT_FALSE(installed->is_full);
  EXPECT_TRUE(TransitionIsSafe(config, *next));
}

TEST(PgConfig, FullTailTransitionsSafe) {
  auto config = PgConfig::Create(0, QuorumModel::kFullTail,
                                 SixSegments(/*full_tail=*/true));
  auto next = config.BeginReplace(0, SegmentInfo{6, 110, 0, true});
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(TransitionIsSafe(config, *next));
  auto committed = next->CommitReplace(0);
  ASSERT_TRUE(committed.ok());
  EXPECT_TRUE(TransitionIsSafe(*next, *committed));
}

TEST(PgConfig, QuorumModelSwitch34) {
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  auto degraded = config.WithModel(QuorumModel::kUniform34);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->epoch(), 2u);
  EXPECT_TRUE(degraded->WriteSet().SatisfiedBy({0, 1, 2}));
  EXPECT_TRUE(
      QuorumSet::AlwaysOverlaps(degraded->ReadSet(), degraded->WriteSet()));
}

// Property: random sequences of begin/commit/revert transitions always
// preserve both quorum rules at every step.
class MembershipPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MembershipPropertyTest, RandomTransitionSequencesStaySafe) {
  Rng rng(GetParam());
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  SegmentId next_id = 6;
  NodeId next_node = 110;
  for (int step = 0; step < 40; ++step) {
    const auto members = config.AllMembers();
    PgConfig next_config = config;
    const int action = static_cast<int>(rng.NextBounded(3));
    if (action == 0) {
      // Begin a replacement of a random single-alternative slot member.
      const auto& victim = members[rng.NextBounded(members.size())];
      SegmentInfo fresh{next_id, next_node, victim.az, victim.is_full};
      auto r = config.BeginReplace(victim.id, fresh);
      if (!r.ok()) continue;
      next_id++;
      next_node++;
      next_config = *r;
    } else {
      // Commit or revert a random pending slot, if any.
      std::vector<SegmentId> pending;
      for (const auto& slot : config.slots()) {
        if (slot.size() == 2) pending.push_back(slot[0].id);
      }
      if (pending.empty()) continue;
      const SegmentId target = pending[rng.NextBounded(pending.size())];
      auto r = action == 1 ? config.CommitReplace(target)
                           : config.RevertReplace(target);
      if (!r.ok()) continue;
      next_config = *r;
    }
    ASSERT_TRUE(TransitionIsSafe(config, next_config))
        << "step " << step << ": " << config.ToString() << " -> "
        << next_config.ToString();
    ASSERT_EQ(next_config.epoch(), config.epoch() + 1);
    config = next_config;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------- //
// VolumeGeometry

TEST(VolumeGeometry, BlockMapping) {
  std::vector<PgConfig> pgs;
  pgs.push_back(PgConfig::Create(0, QuorumModel::kUniform46, SixSegments()));
  auto members2 = SixSegments();
  for (auto& m : members2) m.id += 6;
  pgs.push_back(PgConfig::Create(1, QuorumModel::kUniform46, members2));
  VolumeGeometry geometry(1000, pgs);
  EXPECT_EQ(*geometry.PgForBlock(0), 0u);
  EXPECT_EQ(*geometry.PgForBlock(999), 0u);
  EXPECT_EQ(*geometry.PgForBlock(1000), 1u);
  EXPECT_TRUE(geometry.PgForBlock(2000).status().code() ==
              StatusCode::kOutOfRange);
  EXPECT_EQ(geometry.Capacity(), 2000u);
}

TEST(VolumeGeometry, GrowthBumpsGeometryEpoch) {
  VolumeGeometry geometry(
      1000, {PgConfig::Create(0, QuorumModel::kUniform46, SixSegments())});
  EXPECT_EQ(geometry.geometry_epoch(), 1u);
  auto members2 = SixSegments();
  for (auto& m : members2) m.id += 6;
  geometry.AddPg(PgConfig::Create(1, QuorumModel::kUniform46, members2));
  EXPECT_EQ(geometry.geometry_epoch(), 2u);
  EXPECT_EQ(geometry.PgCount(), 2u);
}

TEST(VolumeGeometry, UpdateRejectsEpochRegression) {
  auto config = PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  VolumeGeometry geometry(1000, {config});
  auto next = config.BeginReplace(5, SegmentInfo{6, 110, 2, true});
  ASSERT_TRUE(geometry.UpdatePg(*next).ok());
  EXPECT_TRUE(geometry.UpdatePg(config).IsStaleEpoch());
}

}  // namespace
}  // namespace aurora::quorum
