// Quorum sets as monotone Boolean formulas over segment ids.
//
// §4.1: "Aurora uses the abstraction of quorum sets to quickly transition
// membership changes, using Boolean logic to ensure more sophisticated read
// quorums and write quorums that are guaranteed to overlap... Using Boolean
// logic, we can prove that each transition is correct, safe, and
// reversible." This module provides that algebra plus the exhaustive
// overlap prover used by tests and by the membership state machine's
// debug-mode self-checks.
//
// The formulas matter because membership changes are expressed entirely
// through them (no consensus round): a group mid-change has a write set
// that is the AND of the old and new candidate memberships (e.g.
// 4/6{ABCDEF} ∧ 4/6{ABCDEG}) and a read set that is their OR. The two §2.1
// rules every configuration — stable or mid-change — must satisfy:
//
//   rule 1:  each read set intersects each write set (Vr + Vw > V), so a
//            reader always meets at least one node that saw the last write;
//   rule 2:  each write set intersects each prior write set (2·Vw > V), so
//            two writers across an epoch boundary share a witness and a
//            stale writer's acks can never form a quorum unseen.
//
// `AlwaysOverlaps` proves rule 1, `Implies` proves rule 2 across a
// transition, and `TransitionIsSafe` (membership.h) packages both. These
// are DESIGN.md §5 invariants 2 and 7, checked exhaustively in
// tests/quorum_test.cc and property_test.cc for every transition shape the
// state machine can produce (replace, revert, 4/6↔3/4, full/tail).

#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace aurora::quorum {

/// A set of segments that acknowledged (or can serve) a request.
using SegmentSet = std::set<SegmentId>;

/// Monotone Boolean formula: leaves are "k of {members}" threshold clauses,
/// internal nodes are AND / OR. Monotonicity (a superset of a satisfying
/// set also satisfies) is what makes quorum-overlap checkable with a single
/// subset enumeration.
class QuorumSet {
 public:
  /// Threshold clause: at least `k` of `members` must be present.
  static QuorumSet KofN(uint32_t k, std::vector<SegmentId> members);
  /// All children must be satisfied.
  static QuorumSet And(std::vector<QuorumSet> children);
  /// At least one child must be satisfied.
  static QuorumSet Or(std::vector<QuorumSet> children);

  QuorumSet() = default;  // empty formula; satisfied by anything

  /// True iff the segments in `present` (acked, or able to serve; any
  /// order, duplicates allowed) satisfy the formula. Takes a short member
  /// list so the per-ack PGCL evaluation allocates nothing.
  bool SatisfiedBy(std::span<const SegmentId> present) const;
  /// Set form for callers that collect acks in a SegmentSet.
  bool SatisfiedBy(const SegmentSet& present) const;

  /// Union of all member ids mentioned anywhere in the formula.
  SegmentSet Universe() const;

  /// True iff every satisfying set of `a` intersects every satisfying set
  /// of `b`. Exhaustive over the joint universe; intended for universes of
  /// up to ~20 segments (tests, debug checks, membership transitions).
  ///
  /// By monotonicity, a disjoint satisfying pair exists iff some subset S
  /// of the universe satisfies `a` while its complement satisfies `b` — a
  /// single 2^|U| scan.
  static bool AlwaysOverlaps(const QuorumSet& a, const QuorumSet& b);

  /// True iff every set satisfying `a` also satisfies `b` (a is at least
  /// as strict). Used to prove membership transitions preserve prior
  /// write-set overlap (§2.1 rule 2 / §4.1 reversibility).
  static bool Implies(const QuorumSet& a, const QuorumSet& b);

  std::string ToString() const;

 private:
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;

  enum class Op { kThreshold, kAnd, kOr };

  struct Node {
    Op op;
    uint32_t k = 0;
    std::vector<SegmentId> members;  // kThreshold
    std::vector<NodePtr> children;   // kAnd / kOr
  };

  static bool Eval(const Node& node, std::span<const SegmentId> present);
  static void CollectUniverse(const Node& node, SegmentSet* out);
  static std::string NodeToString(const Node& node);

  explicit QuorumSet(NodePtr root) : root_(std::move(root)) {}

  NodePtr root_;
};

}  // namespace aurora::quorum
