// Paxos baseline: single-decree acceptors plus a Multi-Paxos replicated
// log with a stable leader.
//
// This is the "Paxos commit / Paxos membership changes" comparator the
// paper argues against (§1, §5): every write (commit, membership change)
// is a consensus round — one leader→acceptor round trip plus a forced log
// write at a majority, and any leader change stalls the log. Aurora's
// claim is that a database already serializes writes at one instance, so
// the per-write consensus round buys nothing and costs latency; the C1 and
// F5 benchmarks quantify that on identical substrate.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/disk.h"

namespace aurora::baseline {

/// Ballot number: (round, proposer id) with lexicographic order.
struct Ballot {
  uint64_t round = 0;
  NodeId proposer = kInvalidNode;

  auto operator<=>(const Ballot&) const = default;
};

/// One acceptor's durable state for one log slot.
struct AcceptorSlot {
  Ballot promised;
  std::optional<Ballot> accepted_ballot;
  std::string accepted_value;
};

/// A Paxos acceptor: durable promises/accepts (forced disk writes).
class PaxosAcceptor {
 public:
  PaxosAcceptor(sim::Simulator* sim, sim::Network* network, NodeId id,
                AzId az, storage::DiskOptions disk = {});

  NodeId id() const { return id_; }

  struct PromiseReply {
    bool ok = false;
    std::optional<Ballot> accepted_ballot;
    std::string accepted_value;
  };

  void HandlePrepare(uint64_t slot, Ballot ballot,
                     std::function<void(PromiseReply)> reply);
  void HandleAccept(uint64_t slot, Ballot ballot, std::string value,
                    std::function<void(bool)> reply);

  const std::map<uint64_t, AcceptorSlot>& slots() const { return slots_; }

 private:
  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId id_;
  storage::SimDisk disk_;
  std::map<uint64_t, AcceptorSlot> slots_;
};

struct PaxosStats {
  uint64_t proposals = 0;
  uint64_t committed = 0;
  uint64_t prepare_rounds = 0;
  uint64_t messages = 0;
};

/// Multi-Paxos leader over a set of acceptors. With a stable lease the
/// leader skips the prepare phase (one accept round per slot); losing the
/// lease forces a full prepare round for subsequent slots.
class MultiPaxosLog {
 public:
  MultiPaxosLog(sim::Simulator* sim, sim::Network* network, NodeId id,
                AzId az, std::vector<PaxosAcceptor*> acceptors);

  /// Appends `value` to the next slot; cb(slot) once chosen (majority
  /// accepted). Values submitted concurrently are serialized by slot.
  void Append(std::string value, std::function<void(uint64_t)> cb);

  /// Forces the next append to run a full prepare round (models leader
  /// change / lost lease).
  void LoseLeadership() { have_leadership_ = false; }

  const PaxosStats& stats() const { return stats_; }
  Histogram& latency() { return latency_; }

 private:
  void Propose(uint64_t slot, std::string value, bool skip_prepare,
               std::function<void(uint64_t)> cb, SimTime started_at);

  sim::Simulator* sim_;
  sim::Network* network_;
  NodeId id_;
  std::vector<PaxosAcceptor*> acceptors_;
  uint64_t next_slot_ = 0;
  uint64_t round_ = 1;
  bool have_leadership_ = false;
  PaxosStats stats_;
  Histogram latency_;
};

}  // namespace aurora::baseline
