// Crash recovery's pure decisions (src/engine/recovery_plan.h): the one
// SCL-probe rule that recovery, the repair planner, manual replacement
// and AZ expand share, and the probe → plan → tails → recovery points
// pipeline checked over every SCL vector of a small space against a
// brute-force reference written from §2.1, §2.3–§2.4, §4.1 and §4.2.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/engine/recovery_plan.h"
#include "src/quorum/membership.h"

namespace aurora::engine {
namespace {

using quorum::PgConfig;
using quorum::QuorumModel;
using quorum::SegmentInfo;

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

storage::SegmentStateResponse Reply(SegmentId segment, Lsn scl,
                                    bool hydrated) {
  storage::SegmentStateResponse reply;
  reply.segment = segment;
  reply.scl = scl;
  reply.hydrated = hydrated;
  return reply;
}

TEST(ReadQuorumScl, ThreeTailsAreNoQuorumUntilAFullMemberAnswers) {
  // §4.2: the 3 full + 3 tail read set is 3/6 AND 1/3 full. Segments 0,
  // 2, 4 are full and 1, 3, 5 are tails.
  const auto config =
      PgConfig::Create(0, QuorumModel::kFullTail, SixSegments(true));
  SclProbeReplies replies = {{1, Reply(1, 40, true)},
                             {3, Reply(3, 42, true)},
                             {5, Reply(5, 41, true)}};
  EXPECT_FALSE(ReadQuorumScl(config, replies).has_value())
      << "three hydrated tails are not a read quorum";
  replies[0] = Reply(0, 30, true);
  const auto quorum = ReadQuorumScl(config, replies);
  ASSERT_TRUE(quorum.has_value());
  EXPECT_EQ(quorum->scl, 42u);
  EXPECT_EQ(quorum->segment, 3u);
}

TEST(ReadQuorumScl, UnhydratedRepliesNeverCount) {
  const auto config = PgConfig::Create(0, QuorumModel::kUniform46,
                                       SixSegments());
  // Two hydrated replies plus four un-hydrated ones with higher SCLs:
  // six replies, but only two count.
  SclProbeReplies replies = {{0, Reply(0, 10, true)},
                             {1, Reply(1, 11, true)}};
  for (SegmentId id = 2; id < 6; ++id) replies[id] = Reply(id, 99, false);
  EXPECT_FALSE(ReadQuorumScl(config, replies).has_value());
  replies[2] = Reply(2, 9, true);
  const auto quorum = ReadQuorumScl(config, replies);
  ASSERT_TRUE(quorum.has_value());
  EXPECT_EQ(quorum->scl, 11u) << "an un-hydrated SCL leaked into the max";
  EXPECT_EQ(quorum->segment, 1u);
}

TEST(ReadQuorumScl, ShrunkGroupNeedsTwoOfFourAndTiesGoToTheHighestId) {
  const auto six = PgConfig::Create(0, QuorumModel::kUniform46,
                                    SixSegments());
  const auto shrunk = six.ShrinkAfterAzLoss(2);  // members 0..3, 3/4
  ASSERT_TRUE(shrunk.ok());
  SclProbeReplies replies = {{0, Reply(0, 7, true)}};
  EXPECT_FALSE(ReadQuorumScl(*shrunk, replies).has_value());
  replies[2] = Reply(2, 7, true);
  const auto quorum = ReadQuorumScl(*shrunk, replies);
  ASSERT_TRUE(quorum.has_value()) << "3/4 reads need two members, not three";
  EXPECT_EQ(quorum->scl, 7u);
  EXPECT_EQ(quorum->segment, 2u);
  // A reply from a segment outside the group never completes its quorum.
  SclProbeReplies outsider = {{0, Reply(0, 7, true)},
                              {9, Reply(9, 8, true)}};
  EXPECT_FALSE(ReadQuorumScl(*shrunk, outsider).has_value());
}

// ---------------------------------------------------------------------------
// Exhaustive check against a brute-force reference
// ---------------------------------------------------------------------------

size_t CountIn(const std::set<SegmentId>& s,
               const std::vector<SegmentId>& members) {
  return std::count_if(members.begin(), members.end(),
                       [&](SegmentId m) { return s.contains(m); });
}

/// One protection-group shape with its quorums written straight from the
/// paper with std::set counting, not through quorum::QuorumSet.
struct Shape {
  std::string name;
  PgConfig config;
  std::vector<SegmentId> members;
  std::function<bool(const std::set<SegmentId>&)> write;
  std::function<bool(const std::set<SegmentId>&)> read;
};

std::vector<Shape> Shapes() {
  const std::vector<SegmentId> abcdef = {0, 1, 2, 3, 4, 5};
  const std::vector<SegmentId> abcdeg = {0, 1, 2, 3, 4, 6};
  const std::vector<SegmentId> fulls = {0, 2, 4};
  const auto stable =
      PgConfig::Create(0, QuorumModel::kUniform46, SixSegments());
  return {
      {"plain 4/6", stable, abcdef,
       [=](const auto& s) { return CountIn(s, abcdef) >= 4; },
       [=](const auto& s) { return CountIn(s, abcdef) >= 3; }},
      {"Figure-5 dual 4/6 AND 4/6",
       *stable.BeginReplace(5, SegmentInfo{6, 110, 2, true}),
       {0, 1, 2, 3, 4, 5, 6},
       [=](const auto& s) {
         return CountIn(s, abcdef) >= 4 && CountIn(s, abcdeg) >= 4;
       },
       [=](const auto& s) {
         return CountIn(s, abcdef) >= 3 || CountIn(s, abcdeg) >= 3;
       }},
      {"3 full + 3 tail",
       PgConfig::Create(0, QuorumModel::kFullTail, SixSegments(true)),
       abcdef,
       [=](const auto& s) {
         return CountIn(s, abcdef) >= 4 || CountIn(s, fulls) == 3;
       },
       [=](const auto& s) {
         return CountIn(s, abcdef) >= 3 && CountIn(s, fulls) >= 1;
       }},
  };
}

/// One group's state at a crash: member i holds the group's chain up to
/// scl[i] and answers the probe hydrated or not. Every LSN ends its own
/// mini-transaction, so VDL is VCL.
struct Crash {
  std::vector<Lsn> scl;
  std::vector<bool> hydrated;

  std::string ToString() const {
    std::string out = "scl";
    for (size_t i = 0; i < scl.size(); ++i) {
      out += " " + std::to_string(scl[i]) + (hydrated[i] ? "" : "u");
    }
    return out;
  }
};

/// What §2.3–§2.4 ask of recovery, by brute force.
struct Expected {
  /// A read quorum of hydrated members answered.
  bool plan = false;
  /// The highest SCL in that read quorum, and the highest-id member
  /// holding it.
  Lsn vcl = 0;
  SegmentId best = kInvalidSegment;
  /// The highest LSN whose whole prefix reached write quorum: the writer
  /// may have acknowledged any commit at or below it.
  Lsn acked = 0;
};

Expected Reference(const Crash& crash, const Shape& shape, Lsn n) {
  Expected out;
  std::set<SegmentId> hydrated;
  for (size_t i = 0; i < shape.members.size(); ++i) {
    if (!crash.hydrated[i]) continue;
    hydrated.insert(shape.members[i]);
    if (crash.scl[i] >= out.vcl) {  // members ascend by id
      out.vcl = crash.scl[i];
      out.best = shape.members[i];
    }
  }
  out.plan = shape.read(hydrated);
  for (Lsn l = 1; l <= n; ++l) {
    std::set<SegmentId> holders;
    for (size_t i = 0; i < shape.members.size(); ++i) {
      if (crash.scl[i] >= l) holders.insert(shape.members[i]);
    }
    if (!shape.write(holders)) break;
    out.acked = l;
  }
  return out;
}

/// Drives the planner as DbInstance does: probe replies → plan, then
/// tail rounds from the best segment until the points settle.
std::optional<RecoveryPoints> RunPlanner(
    const Crash& crash, const Shape& shape,
    const quorum::VolumeGeometry& geometry, SegmentId* best_out) {
  std::map<ProtectionGroupId, SclProbeReplies> probes;
  for (size_t i = 0; i < shape.members.size(); ++i) {
    probes[0][shape.members[i]] =
        Reply(shape.members[i], crash.scl[i], crash.hydrated[i]);
  }
  std::optional<RecoveryPlan> plan = PlanRecovery(geometry, probes);
  if (!plan) return std::nullopt;
  const SegmentId best = plan->pgs.at(0).segment;
  *best_out = best;
  const Lsn best_scl =
      crash.scl[std::find(shape.members.begin(), shape.members.end(), best) -
                shape.members.begin()];
  std::vector<TailReply> tails;
  for (int round = 0; round < 64; ++round) {
    TailReply tail;
    for (Lsn l = plan->tail_floor + 1; l <= best_scl; ++l) {
      tail.response.records.push_back({l, /*mtr_complete=*/true});
    }
    tails.push_back(std::move(tail));
    RecoveryPoints points = FinishRecovery(*plan, tails);
    if (!points.deeper_floor) return points;
    plan->tail_floor = *points.deeper_floor;
  }
  ADD_FAILURE() << "tail floor never settled: " << crash.ToString();
  return std::nullopt;
}

TEST(RecoveryPlan, EverySclVectorAgreesWithTheReference) {
  // Each member takes every SCL in 0..n and both hydration flags. Checks:
  // a plan exists exactly when the hydrated replies form a read quorum;
  // it recovers the read quorum's highest SCL, which covers every LSN at
  // write quorum, with the best segment's ties to the highest id; and
  // nothing above VDL survives the truncation.
  for (const Shape& shape : Shapes()) {
    const size_t m = shape.members.size();
    const Lsn n = m > 6 ? 2 : 3;
    const quorum::VolumeGeometry geometry(1 << 16, {shape.config});
    Crash crash{std::vector<Lsn>(m, 0), std::vector<bool>(m, false)};
    const uint64_t states = 2 * (n + 1);
    uint64_t cases = 1;
    for (size_t i = 0; i < m; ++i) cases *= states;
    uint64_t planned = 0;
    for (uint64_t c = 0; c < cases; ++c) {
      uint64_t rest = c;
      for (size_t i = 0; i < m; ++i) {
        crash.hydrated[i] = rest % 2 == 1;
        crash.scl[i] = (rest / 2) % (n + 1);
        rest /= states;
      }
      const Expected want = Reference(crash, shape, n);
      SegmentId best = kInvalidSegment;
      const std::optional<RecoveryPoints> got =
          RunPlanner(crash, shape, geometry, &best);
      ASSERT_EQ(got.has_value(), want.plan)
          << shape.name << ": " << crash.ToString();
      if (!got) continue;
      ++planned;
      ASSERT_EQ(got->vcl, want.vcl) << shape.name << ": " << crash.ToString();
      ASSERT_EQ(best, want.best) << shape.name << ": " << crash.ToString();
      ASSERT_GE(got->vcl, want.acked)
          << "acked LSN lost: " << shape.name << ": " << crash.ToString();
      ASSERT_EQ(got->vdl, got->vcl) << shape.name << ": " << crash.ToString();
      ASSERT_EQ(got->truncation.start, got->vdl + 1);
      ASSERT_EQ(got->truncation.end, got->vdl + kTruncationGap);
    }
    EXPECT_GT(planned, 0u) << shape.name;
    EXPECT_LT(planned, cases) << shape.name;
  }
}

}  // namespace
}  // namespace aurora::engine
