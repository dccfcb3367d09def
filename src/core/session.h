// Client sessions with read-your-writes (session consistency).
//
// §3.3: replica read views anchor at VDL control points shipped by the
// writer. A session extends that to a client-visible guarantee: every
// acknowledged write carries an SCN, the session remembers the highest
// SCN it was acked ("the session anchor"), and reads routed to replicas
// first wait until the replica's VDL has reached the anchor. Because the
// writer only acks a commit once it is durable (SCN <= VCL) and
// recovery re-establishes VDL at or above every acked SCN (§2.4), the
// anchor survives writer failovers and replica promotes — the session
// can never observe a database state older than its own last write.
//
// The session is itself a simulated network node: requests to the
// writer and to replicas cross the network, so sessions compose with
// AZ placement, partitions, and node crashes.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace aurora::engine {
class DbInstance;
}  // namespace aurora::engine

namespace aurora::replica {
class ReadReplica;
}  // namespace aurora::replica

namespace aurora::core {

class AuroraCluster;

struct SessionOptions {
  /// Round-robin starting offset into the replica fleet (spreads
  /// sessions across replicas deterministically).
  size_t replica_offset = 0;
};

struct SessionStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  /// Reads served by a replica (possibly after an anchor wait).
  uint64_t replica_reads = 0;
  /// Reads that fell back to the writer (no ready replica, anchor-wait
  /// timeout, or replica error).
  uint64_t writer_fallbacks = 0;
};

/// One client session bound to a cluster. Not thread-safe.
class ClientSession {
 public:
  /// Registers a client endpoint node in `az` on the cluster's network.
  ClientSession(AuroraCluster* cluster, AzId az,
                SessionOptions options = {});

  NodeId node() const { return node_; }
  /// Highest acked commit SCN (kInvalidLsn before the first write).
  Lsn anchor() const { return anchor_; }
  const SessionStats& stats() const { return stats_; }

  /// Autocommit write through the writer; advances the session anchor
  /// to the commit SCN on ack.
  void Put(const std::string& key, const std::string& value,
           std::function<void(Status)> cb);

  /// Session-consistent read: routed to a replica anchored at the
  /// session's last commit, falling back to the writer when no replica
  /// can serve the anchor in time.
  void Get(const std::string& key,
           std::function<void(Result<std::string>)> cb);

  /// Rows of a range scan, in key order.
  using Rows = std::vector<std::pair<std::string, std::string>>;

  /// Session-consistent range scan (same routing as Get).
  void Scan(const std::string& lo, const std::string& hi, size_t limit,
            std::function<void(Result<Rows>)> cb);

 private:
  /// Next live replica in round-robin order, or nullptr.
  replica::ReadReplica* PickReplica();
  /// Runs `op(writer)` at the writer once the writer is open with
  /// VDL >= `anchor`, polling until `deadline`, then stopping. Re-resolves
  /// the current writer each poll so it rides through failovers.
  void RunAtWriterAnchor(Lsn anchor, SimTime deadline,
                         std::function<void(engine::DbInstance*)> op);
  /// The one session read path: `at_replica(rep, anchor, reply)` on a
  /// replica anchored at the session's last commit, falling back to
  /// `at_writer(writer, reply)` when no replica is ready or the replica
  /// answers anything but OK (or NotFound, when `accept_not_found`).
  /// `cb` gets TimedOut(`timeout_message`) at the op deadline.
  template <typename T, typename AtReplica, typename AtWriter>
  void Read(uint64_t request_bytes, bool accept_not_found,
            const char* timeout_message, AtReplica at_replica,
            AtWriter at_writer, std::function<void(Result<T>)> cb);

  AuroraCluster* cluster_;
  NodeId node_;
  AzId az_;
  Lsn anchor_ = kInvalidLsn;
  size_t rr_cursor_ = 0;
  SessionStats stats_;
};

}  // namespace aurora::core
