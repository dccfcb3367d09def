#include "src/quorum/quorum_set.h"

#include <algorithm>
#include <cassert>

namespace aurora::quorum {

QuorumSet QuorumSet::KofN(uint32_t k, std::vector<SegmentId> members) {
  assert(k <= members.size());
  auto node = std::make_shared<Node>();
  node->op = Op::kThreshold;
  node->k = k;
  node->members = std::move(members);
  std::sort(node->members.begin(), node->members.end());
  return QuorumSet(std::move(node));
}

QuorumSet QuorumSet::And(std::vector<QuorumSet> children) {
  if (children.size() == 1) return children[0];
  auto node = std::make_shared<Node>();
  node->op = Op::kAnd;
  for (auto& c : children) {
    if (c.root_ != nullptr) node->children.push_back(c.root_);
  }
  return QuorumSet(std::move(node));
}

QuorumSet QuorumSet::Or(std::vector<QuorumSet> children) {
  if (children.size() == 1) return children[0];
  auto node = std::make_shared<Node>();
  node->op = Op::kOr;
  for (auto& c : children) {
    if (c.root_ != nullptr) node->children.push_back(c.root_);
  }
  return QuorumSet(std::move(node));
}

bool QuorumSet::SatisfiedBy(std::span<const SegmentId> present) const {
  if (root_ == nullptr) return true;
  return Eval(*root_, present);
}

bool QuorumSet::SatisfiedBy(const SegmentSet& present) const {
  const std::vector<SegmentId> members(present.begin(), present.end());
  return SatisfiedBy(members);
}

bool QuorumSet::Eval(const Node& node, std::span<const SegmentId> present) {
  switch (node.op) {
    case Op::kThreshold: {
      uint32_t count = 0;
      for (SegmentId m : node.members) {
        if (std::find(present.begin(), present.end(), m) != present.end() &&
            ++count >= node.k) {
          return true;
        }
      }
      return node.k == 0;
    }
    case Op::kAnd:
      for (const auto& c : node.children) {
        if (!Eval(*c, present)) return false;
      }
      return true;
    case Op::kOr:
      for (const auto& c : node.children) {
        if (Eval(*c, present)) return true;
      }
      return node.children.empty();
  }
  return false;
}

SegmentSet QuorumSet::Universe() const {
  SegmentSet out;
  if (root_ != nullptr) CollectUniverse(*root_, &out);
  return out;
}

void QuorumSet::CollectUniverse(const Node& node, SegmentSet* out) {
  if (node.op == Op::kThreshold) {
    out->insert(node.members.begin(), node.members.end());
    return;
  }
  for (const auto& c : node.children) CollectUniverse(*c, out);
}

bool QuorumSet::AlwaysOverlaps(const QuorumSet& a, const QuorumSet& b) {
  SegmentSet universe = a.Universe();
  const SegmentSet ub = b.Universe();
  universe.insert(ub.begin(), ub.end());
  std::vector<SegmentId> ids(universe.begin(), universe.end());
  const size_t n = ids.size();
  assert(n <= 24 && "AlwaysOverlaps is exhaustive; universe too large");
  const uint64_t limit = 1ULL << n;
  std::vector<SegmentId> s, complement;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    s.clear();
    complement.clear();
    for (size_t i = 0; i < n; ++i) {
      ((mask & (1ULL << i)) ? s : complement).push_back(ids[i]);
    }
    if (a.SatisfiedBy(s) && b.SatisfiedBy(complement)) return false;
  }
  return true;
}

bool QuorumSet::Implies(const QuorumSet& a, const QuorumSet& b) {
  SegmentSet universe = a.Universe();
  const SegmentSet ub = b.Universe();
  universe.insert(ub.begin(), ub.end());
  std::vector<SegmentId> ids(universe.begin(), universe.end());
  const size_t n = ids.size();
  assert(n <= 24 && "Implies is exhaustive; universe too large");
  const uint64_t limit = 1ULL << n;
  std::vector<SegmentId> s;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    s.clear();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) s.push_back(ids[i]);
    }
    if (a.SatisfiedBy(s) && !b.SatisfiedBy(s)) return false;
  }
  return true;
}

std::string QuorumSet::ToString() const {
  if (root_ == nullptr) return "(true)";
  return NodeToString(*root_);
}

std::string QuorumSet::NodeToString(const Node& node) {
  switch (node.op) {
    case Op::kThreshold: {
      std::string out = std::to_string(node.k) + "/{";
      for (size_t i = 0; i < node.members.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(node.members[i]);
      }
      out += "}";
      return out;
    }
    case Op::kAnd:
    case Op::kOr: {
      const char* sep = node.op == Op::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out += sep;
        out += NodeToString(*node.children[i]);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

}  // namespace aurora::quorum
