#include "src/quorum/membership.h"

#include <algorithm>
#include <cassert>

namespace aurora::quorum {

PgConfig PgConfig::Create(ProtectionGroupId pg, QuorumModel model,
                          std::vector<SegmentInfo> members) {
  assert(!members.empty());
  PgConfig config;
  config.pg_ = pg;
  config.epoch_ = 1;
  config.model_ = model;
  config.slots_.reserve(members.size());
  for (auto& m : members) {
    config.slots_.push_back({m});
  }
  return config;
}

std::vector<SegmentInfo> PgConfig::AllMembers() const {
  std::vector<SegmentInfo> out;
  for (const auto& slot : slots_) {
    for (const auto& alt : slot) out.push_back(alt);
  }
  return out;
}

bool PgConfig::ContainsSegment(SegmentId id) const {
  return FindSegment(id) != nullptr;
}

const SegmentInfo* PgConfig::FindSegment(SegmentId id) const {
  for (const auto& slot : slots_) {
    for (const auto& alt : slot) {
      if (alt.id == id) return &alt;
    }
  }
  return nullptr;
}

const SegmentInfo* PgConfig::PendingPartner(SegmentId id) const {
  for (const auto& slot : slots_) {
    if (slot.size() != 2) continue;
    if (slot[0].id == id) return &slot[1];
    if (slot[1].id == id) return &slot[0];
  }
  return nullptr;
}

bool PgConfig::HasPendingChange() const {
  return std::any_of(slots_.begin(), slots_.end(),
                     [](const auto& slot) { return slot.size() > 1; });
}

std::vector<std::vector<SegmentInfo>> PgConfig::CandidateMemberships() const {
  std::vector<std::vector<SegmentInfo>> candidates = {{}};
  for (const auto& slot : slots_) {
    std::vector<std::vector<SegmentInfo>> next;
    next.reserve(candidates.size() * slot.size());
    for (const auto& partial : candidates) {
      for (const auto& alt : slot) {
        auto extended = partial;
        extended.push_back(alt);
        next.push_back(std::move(extended));
      }
    }
    candidates = std::move(next);
  }
  return candidates;
}

QuorumSet PgConfig::QuorumForCandidate(
    const std::vector<SegmentInfo>& candidate, bool write) const {
  std::vector<SegmentId> all;
  std::vector<SegmentId> fulls;
  for (const auto& s : candidate) {
    all.push_back(s.id);
    if (s.is_full) fulls.push_back(s.id);
  }
  const auto n = static_cast<uint32_t>(all.size());
  switch (model_) {
    case QuorumModel::kUniform46: {
      // General rule for V members: Vw = floor(V/2)+1 generalized to the
      // paper's 4/6; Vr = V+1-Vw = 3/6.
      const uint32_t vw = std::min<uint32_t>(n, n / 2 + 1);
      const uint32_t vr = n + 1 - vw;
      return QuorumSet::KofN(write ? vw : vr, all);
    }
    case QuorumModel::kUniform34: {
      const uint32_t vw = std::min<uint32_t>(n, 3);
      const uint32_t vr = n + 1 - vw;
      return QuorumSet::KofN(write ? vw : vr, all);
    }
    case QuorumModel::kFullTail: {
      const uint32_t vw = std::min<uint32_t>(n, n / 2 + 1);
      const uint32_t vr = n + 1 - vw;
      const auto nf = static_cast<uint32_t>(fulls.size());
      // Soundness: the all-fulls write clause must intersect every
      // vw-of-all write, which requires nf > n - vw (true for the paper's
      // 3 fulls of 6 with vw=4). Otherwise fall back to uniform quorums.
      if (nf == 0 || nf + vw <= n) {
        return QuorumSet::KofN(write ? vw : vr, all);
      }
      if (write) {
        // 4/6 of any OR 3/3 of full segments (§4.2).
        return QuorumSet::Or(
            {QuorumSet::KofN(vw, all), QuorumSet::KofN(nf, fulls)});
      }
      // 3/6 of any AND 1/3 of full segments.
      return QuorumSet::And(
          {QuorumSet::KofN(vr, all), QuorumSet::KofN(1, fulls)});
    }
  }
  return QuorumSet();
}

QuorumSet PgConfig::WriteSet() const {
  std::vector<QuorumSet> parts;
  for (const auto& candidate : CandidateMemberships()) {
    parts.push_back(QuorumForCandidate(candidate, /*write=*/true));
  }
  return QuorumSet::And(std::move(parts));
}

QuorumSet PgConfig::ReadSet() const {
  std::vector<QuorumSet> parts;
  for (const auto& candidate : CandidateMemberships()) {
    parts.push_back(QuorumForCandidate(candidate, /*write=*/false));
  }
  return QuorumSet::Or(std::move(parts));
}

Result<PgConfig> PgConfig::BeginReplace(SegmentId old_id,
                                        SegmentInfo replacement) const {
  if (ContainsSegment(replacement.id)) {
    return Status::AlreadyExists("replacement segment already a member");
  }
  PgConfig next = *this;
  for (auto& slot : next.slots_) {
    for (const auto& alt : slot) {
      if (alt.id != old_id) continue;
      if (slot.size() > 1) {
        return Status::Conflict("slot already has a pending change");
      }
      // Replacement must match the slot's durability class so full/tail
      // quorum math is preserved across the change.
      replacement.is_full = alt.is_full;
      slot.push_back(replacement);
      next.epoch_ = epoch_ + 1;
      return next;
    }
  }
  return Status::NotFound("segment not a member of this protection group");
}

Result<PgConfig> PgConfig::CommitReplace(SegmentId old_id) const {
  return SettlePending(old_id, /*keep_old=*/false);
}

Result<PgConfig> PgConfig::RevertReplace(SegmentId old_id) const {
  return SettlePending(old_id, /*keep_old=*/true);
}

Result<PgConfig> PgConfig::SettlePending(SegmentId old_id,
                                         bool keep_old) const {
  const SegmentInfo* partner = PendingPartner(old_id);
  if (partner == nullptr) {
    return Status::NotFound("no pending change involving segment");
  }
  const SegmentInfo keep = keep_old ? *FindSegment(old_id) : *partner;
  PgConfig next = *this;
  for (auto& slot : next.slots_) {
    if (slot.size() == 2 && (slot[0].id == old_id || slot[1].id == old_id)) {
      slot = {keep};
    }
  }
  next.epoch_ = epoch_ + 1;
  return next;
}

Result<PgConfig> PgConfig::ShrinkAfterAzLoss(AzId lost_az) const {
  if (HasPendingChange()) {
    return Status::Conflict("cannot shrink mid-membership-change");
  }
  PgConfig next = *this;
  next.slots_.clear();
  for (const auto& slot : slots_) {
    if (slot[0].az != lost_az) next.slots_.push_back(slot);
  }
  if (next.slots_.size() == slots_.size()) {
    return Status::NotFound("no members in the lost AZ");
  }
  if (next.slots_.size() < 3) {
    return Status::InvalidArgument("shrink would leave fewer than 3 members");
  }
  next.model_ = QuorumModel::kUniform34;
  next.epoch_ = epoch_ + 1;
  return next;
}

Result<PgConfig> PgConfig::ExpandToSix(
    const std::vector<SegmentInfo>& fresh) const {
  if (HasPendingChange()) {
    return Status::Conflict("cannot expand mid-membership-change");
  }
  PgConfig next = *this;
  for (const auto& info : fresh) {
    if (ContainsSegment(info.id)) {
      return Status::AlreadyExists("fresh segment already a member");
    }
    next.slots_.push_back({info});
  }
  if (next.slots_.size() != 6) {
    return Status::InvalidArgument("expand must restore exactly 6 members");
  }
  next.model_ = QuorumModel::kUniform46;
  next.epoch_ = epoch_ + 1;
  return next;
}

Result<PgConfig> PgConfig::WithModel(QuorumModel model) const {
  if (HasPendingChange()) {
    return Status::Conflict("cannot change quorum model mid-membership-change");
  }
  PgConfig next = *this;
  next.model_ = model;
  next.epoch_ = epoch_ + 1;
  return next;
}

std::string PgConfig::ToString() const {
  std::string out = "PG" + std::to_string(pg_) + "@e" + std::to_string(epoch_);
  out += " slots=[";
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (i > 0) out += " ";
    if (slots_[i].size() == 1) {
      out += std::to_string(slots_[i][0].id);
      if (!slots_[i][0].is_full) out += "t";
    } else {
      out += "{";
      for (size_t j = 0; j < slots_[i].size(); ++j) {
        if (j > 0) out += "|";
        out += std::to_string(slots_[i][j].id);
      }
      out += "}";
    }
  }
  out += "] write=" + WriteSet().ToString();
  out += " read=" + ReadSet().ToString();
  return out;
}

bool TransitionIsSafe(const PgConfig& old_config,
                      const PgConfig& next_config) {
  // Rule 1: new read and write sets must overlap.
  if (!QuorumSet::AlwaysOverlaps(next_config.ReadSet(),
                                 next_config.WriteSet())) {
    return false;
  }
  // Rule 2: the new write set must overlap prior write sets.
  if (!QuorumSet::AlwaysOverlaps(next_config.WriteSet(),
                                 old_config.WriteSet())) {
    return false;
  }
  // Note: the new READ set need not combinatorially overlap *prior* write
  // sets — a candidate branch containing a freshly added (empty) segment
  // cannot witness old data. Safety there is operational: an un-hydrated
  // segment never counts toward a read quorum (recovery masks it out), and
  // CommitReplace is gated on hydration completing. Tests verify that the
  // read set restricted to previously-present members does overlap the old
  // write set.
  return true;
}

}  // namespace aurora::quorum
