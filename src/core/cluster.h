// AuroraCluster: the public entry point of the library.
//
// Assembles a complete simulated deployment — three Availability Zones,
// storage nodes hosting six-way protection groups, a metadata service, a
// writer database instance, optional read replicas, an object-store
// archive, and a failure injector — and exposes the paper's control
// operations: crash/recover the writer, fail AZs and storage nodes,
// replace segments with reversible two-step membership changes (Figure 5),
// grow the volume, and promote replicas.
//
// The simulation is single-threaded and deterministic; the *Blocking
// helpers drive the event loop until the corresponding asynchronous
// operation completes, which keeps examples and tests linear to read.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/placement.h"
#include "src/engine/db_instance.h"
#include "src/engine/recovery_plan.h"
#include "src/quorum/geometry.h"
#include "src/replica/read_replica.h"
#include "src/sim/failure_injector.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/storage/object_store.h"
#include "src/storage/storage_node.h"

namespace aurora::core {

/// Fleet limit on read replicas (the production Aurora shape: one writer
/// plus up to 15 read replicas on the shared volume).
inline constexpr size_t kMaxReplicas = 15;

struct AuroraOptions {
  uint64_t seed = 42;
  /// Protection groups in the volume (each owns blocks_per_pg blocks).
  size_t num_pgs = 1;
  uint64_t blocks_per_pg = 1 << 20;
  quorum::QuorumModel quorum_model = quorum::QuorumModel::kUniform46;
  /// Storage nodes per AZ; the placement service spreads segments across
  /// them least-loaded-first.
  size_t storage_nodes_per_az = 2;
  storage::StorageNodeOptions storage_node;
  engine::DbOptions db;
  replica::ReplicaOptions replica;
  /// Independent volumes (tenants) sharing the storage fleet (DESIGN.md
  /// §11). 1 (default) is the classic single-tenant cluster. Each volume
  /// creates `num_pgs` protection groups on the shared servers, laid out
  /// by the placement service under anti-affinity rules, and volume v
  /// gets its own writer instance (reached via `writer(v)`) with an
  /// independent LSN space, epoch lineage, and commit pipeline.
  size_t volumes = 1;
};

/// The metadata service (§2.4, §4.1): the authority for volume epochs,
/// membership epochs, and volume geometry. It is deliberately tiny — the
/// point of the paper is that the DATA path never consults it; it is only
/// touched at crash recovery and membership changes.
///
/// Multi-tenant (DESIGN.md §11): one service instance is the authority
/// for EVERY volume on the shared fleet, holding an independent
/// (epoch, geometry) pair per VolumeId. All accessors default to volume
/// 0 — the primary volume — so single-tenant call sites read unchanged;
/// tenant-aware callers pass the volume explicitly. Epoch lineages never
/// interact across volumes: fencing one tenant's crashed writer cannot
/// invalidate another tenant's in-flight I/O.
class MetadataService {
 public:
  MetadataService(sim::Network* network, NodeId id, AzId az);

  NodeId id() const { return id_; }
  VolumeEpoch volume_epoch(VolumeId volume = 0) const;
  const quorum::VolumeGeometry& geometry(VolumeId volume = 0) const;
  quorum::VolumeGeometry& mutable_geometry(VolumeId volume = 0);

  /// Installs (or replaces) `volume`'s geometry; creates the volume's
  /// epoch lineage at 1 on first sight.
  void SetGeometry(quorum::VolumeGeometry geometry, VolumeId volume = 0);

  /// Volumes with registered state, ascending (always includes 0).
  std::vector<VolumeId> VolumeIds() const;

  /// Network-mediated epoch increment (used by crash recovery). The
  /// request/reply byte counts are volume-independent, so adding tenants
  /// never changes another tenant's message timings.
  void IncrementVolumeEpoch(NodeId caller, VolumeId volume,
                            std::function<void(VolumeEpoch)> cb);
  /// Network-mediated geometry fetch.
  void FetchGeometry(
      NodeId caller, VolumeId volume,
      std::function<void(quorum::VolumeGeometry, VolumeEpoch)> cb);

 private:
  /// Per-volume authority state: epoch lineage + geometry, independent
  /// across tenants.
  struct VolumeState {
    VolumeEpoch epoch = 1;
    quorum::VolumeGeometry geometry;
  };
  VolumeState& StateFor(VolumeId volume);
  const VolumeState& StateFor(VolumeId volume) const;

  sim::Network* network_;
  NodeId id_;
  std::map<VolumeId, VolumeState> volumes_;
};

/// Outcome of a membership change (Figure 5).
struct MembershipChangeReport {
  SegmentId new_segment = kInvalidSegment;
  MembershipEpoch begin_epoch = 0;   // epoch of the dual-quorum config
  MembershipEpoch final_epoch = 0;   // epoch after the commit
};

class AuroraCluster {
 public:
  explicit AuroraCluster(AuroraOptions options = {});
  ~AuroraCluster();

  AuroraCluster(const AuroraCluster&) = delete;
  AuroraCluster& operator=(const AuroraCluster&) = delete;

  // -- Assembly -----------------------------------------------------------

  /// Creates storage nodes + segments + writer, bootstraps the volume.
  Status StartBlocking();

  sim::Simulator& sim() { return sim_; }
  sim::Network& network() { return network_; }

  sim::FailureInjector& failures() { return *failure_injector_; }
  storage::ObjectStore& object_store() { return *object_store_; }
  MetadataService& metadata() { return *metadata_; }

  engine::DbInstance* writer() { return writer(0); }
  /// Volume `v`'s writer instance: the primary writer for v == 0, the
  /// tenant writer otherwise (nullptr for unknown volumes). Each tenant
  /// writer owns an independent LSN space, commit queue, and epoch
  /// lineage over its own protection groups.
  engine::DbInstance* writer(VolumeId volume);
  /// Volumes configured on this cluster (`AuroraOptions::volumes`).
  size_t VolumeCount() const { return options_.volumes; }
  /// Fleet placement authority: lays out every volume's PGs and picks
  /// replacement hosts.
  PlacementService* placement() { return &placement_; }
  storage::StorageNode* node(NodeId id);
  const std::vector<std::unique_ptr<storage::StorageNode>>& storage_nodes()
      const {
    return storage_nodes_;
  }
  std::vector<NodeId> StorageNodeIds() const;
  std::vector<AzId> AzIds() const;

  /// Storage node hosting `segment`, or nullptr.
  storage::StorageNode* NodeForSegment(SegmentId segment);
  /// The config containing `segment`, searched in (volume, pg) order; its
  /// volume goes to `volume_out` when that is not null.
  const quorum::PgConfig* FindConfigForSegment(
      SegmentId segment, VolumeId* volume_out = nullptr) const;

  // -- Control-plane building blocks: the Figure-5 steps (§4.1) -----------
  //
  // A membership change probes a read quorum for the hydration target,
  // stages fresh un-hydrated members under an epoch+1 config installed at
  // the old config's write quorum, hydrates them, then installs the commit
  // or revert (epoch+2) and drops the loser. Each step is written once
  // here: the repair planner runs them from its state machine, and each
  // *Blocking membership operation runs them to completion. Every message
  // goes from the metadata node through storage::Call, so both legs
  // cross the simulated wire.

  /// One SCL probe round of `config`'s members. Each hydrated reply is
  /// folded into `*replies`, which keeps each member's highest SCL, so a
  /// member answering several rounds counts once toward
  /// engine::ReadQuorumScl(config, *replies); `on_reply` (if set) runs
  /// after each fold.
  void ProbeSclsAsync(const quorum::PgConfig& config,
                      std::shared_ptr<engine::SclProbeReplies> replies,
                      std::function<void()> on_reply = nullptr);

  /// `count` fresh members for `config` in `az`: fresh segment ids of
  /// `config`'s volume on distinct hosts picked by
  /// PlacementService::PickReplacement (live ones first, then down ones,
  /// which hydrate once they return). Unavailable if the AZ lacks them.
  Result<std::vector<quorum::SegmentInfo>> PlaceFreshMembers(
      const quorum::PgConfig& config, AzId az, size_t count);

  /// Creates each member `next` adds to `config` on its host, un-hydrated
  /// and already holding `next`, hydrating toward `target_scl`; returns
  /// them.
  std::vector<quorum::SegmentInfo> StageFreshMembers(
      const quorum::PgConfig& config, const quorum::PgConfig& next,
      Lsn target_scl);

  /// The one config install: sends `new_config` to every member and,
  /// without pumping the event loop, fires `done` with OK once a write
  /// quorum of `old_config` acks (metadata geometry, the writer's driver,
  /// and replicas are updated first) or with QuorumUnavailable after
  /// `timeout`. A node that already holds `new_config` itself counts as
  /// an ack: membership installs are monotone at the nodes
  /// (segment_store.cc), so retrying a timed-out install is always safe
  /// and eventually convergent, while a different config that reached the
  /// same epoch first never counts.
  void InstallPgConfigAsync(const quorum::PgConfig& old_config,
                            const quorum::PgConfig& new_config,
                            std::function<void(Status)> done,
                            SimDuration timeout = 2 * kSecond);

  /// Drops every member of `before` that `after` no longer has (the
  /// suspect after a commit, the replacement after a revert) from its
  /// host, crashed hosts included.
  void DropDepartedMembers(const quorum::PgConfig& before,
                           const quorum::PgConfig& after);

  /// Visits every live segment store in the fleet (crashed nodes included:
  /// their segment state is disk-durable). Used by the invariant auditor.
  void ForEachSegment(
      const std::function<void(storage::StorageNode*, storage::SegmentStore*)>&
          fn);

  /// Stats of every segment the fleet has hosted: live segments, then
  /// those dropped by membership changes (StorageNode::DropSegment).
  std::vector<storage::SegmentStats> FleetSegmentStats() const;

  /// Visits every protection-group config of every volume, in (volume,
  /// pg) order. The control plane (health monitor, repair planner,
  /// auditor) uses this instead of `geometry().pgs()` so it covers all
  /// tenants.
  void ForEachPgConfig(
      const std::function<void(VolumeId, const quorum::PgConfig&)>& fn) const;

  /// Volume owning `config` (read off its members; configs are always
  /// single-volume). 0 for a config without members.
  static VolumeId VolumeOf(const quorum::PgConfig& config);

  // -- Replicas -----------------------------------------------------------

  /// Attaches one more read replica to the shared volume; nullptr once
  /// the fleet is at kMaxReplicas (15, the production Aurora limit).
  replica::ReadReplica* AddReplica();

  /// Registers a client endpoint node in `az` (used by ClientSession);
  /// client nodes carry no actors, only request/response traffic.
  NodeId RegisterClientNode(AzId az);
  const std::vector<std::unique_ptr<replica::ReadReplica>>& replicas() const {
    return replicas_;
  }

  /// Fails over: crashes the writer (if alive), promotes a fresh instance
  /// (recovery + fencing). Replicas keep running and re-attach to the new
  /// writer's stream.
  Result<engine::DbInstance*> FailoverBlocking();

  /// Creates an additional, unmanaged database instance attached to the
  /// same volume (it is NOT installed as the cluster's writer). Used to
  /// exercise split-brain scenarios: two instances racing to open must
  /// resolve via volume epochs, never via coordination.
  std::unique_ptr<engine::DbInstance> CreateDetachedInstance();

  // -- Simple data-path helpers (autocommit) -------------------------------

  /// Autocommit helpers through volume 0's writer.
  Status PutBlocking(const std::string& key, const std::string& value);
  Result<std::string> GetBlocking(const std::string& key);
  /// Tenant-qualified autocommit helpers: same as above but through
  /// `volume`'s writer (NotFound for an unknown volume).
  Status PutBlocking(VolumeId volume, const std::string& key,
                     const std::string& value);
  Result<std::string> GetBlocking(VolumeId volume, const std::string& key);
  Status DeleteBlocking(const std::string& key);
  Status CommitBlocking(TxnId txn);
  Status RollbackBlocking(TxnId txn);

  // -- Fault & membership operations ---------------------------------------

  void CrashWriter();
  Status RecoverWriterBlocking();

  /// Replaces `old_segment` with a fresh segment via the two-step quorum-
  /// set transition; commits once hydrated. I/O proceeds throughout. On a
  /// healthy segment this is heat management (§1, §4.1): the live source
  /// makes hydration fast.
  Result<MembershipChangeReport> ReplaceSegmentBlocking(SegmentId old_segment);

  /// Begins a replacement (dual-quorum epoch) without committing —
  /// exposes the intermediate Figure-5 state for tests/benches.
  Result<MembershipChangeReport> BeginReplaceBlocking(SegmentId old_segment);
  /// Completes a pending replacement (requires hydration).
  Status CommitReplaceBlocking(SegmentId old_segment);
  /// Reverses a pending replacement (the suspect member came back).
  Status RevertReplaceBlocking(SegmentId old_segment);

  /// Appends a protection group to `volume` (geometry epoch increment),
  /// placed through the placement service.
  Status GrowVolumeBlocking(VolumeId volume = 0);

  /// Point-in-time restore (§2.1 activity 6, Figure 2's "point in time
  /// snapshot"): crashes the writer, reloads every segment from the
  /// object-store archive at `restore_point` (which must be at or below
  /// the archive's coverage), and opens a fresh writer. All work after
  /// the restore point is gone — that is the point.
  Status RestoreToPointBlocking(Lsn restore_point);

  /// Highest restore point currently covered by the archive for every PG.
  Lsn ArchiveHorizon() const;

  /// §4.1 extended AZ loss: drops the lost AZ's members from every PG and
  /// switches to the 3/4 quorum model so a further single failure no
  /// longer blocks writes.
  Status ShrinkAfterAzLossBlocking(AzId lost_az);

  /// Restores the 4/6 model with two fresh (hydrated) members per PG in
  /// `restored_az`.
  Status ExpandToSixBlocking(AzId restored_az);

  // -- Metrics -------------------------------------------------------------

  /// Every series this cluster's components count, as one JSON object
  /// (DESIGN.md §5b): counters and gauges as numbers, histograms as
  /// {count, mean_us, p50_us, p99_us, max_us}. Each series is summed over
  /// the instances the cluster owns, so two clusters in one process never
  /// share a count.
  std::string MetricsJson();

  // -- Event-loop helpers --------------------------------------------------

  /// Runs the simulation until `pred` holds or `timeout` elapses (0 means
  /// the default deadline of the *Blocking helpers).
  bool RunUntil(const std::function<bool()>& pred, SimDuration timeout = 0);
  void RunFor(SimDuration duration) { sim_.RunFor(duration); }

  const AuroraOptions& options() const { return options_; }
  const quorum::VolumeGeometry& geometry() const {
    return metadata_->geometry();
  }
  /// Volume `v`'s geometry; geometry() above is volume 0's.
  const quorum::VolumeGeometry& geometry(VolumeId volume) const {
    return metadata_->geometry(volume);
  }

 private:
  /// Placement-service layout of one PG: anti-affine
  /// members with fresh fleet-unique segment ids, tagged with `volume`.
  Result<quorum::PgConfig> PlacePgConfig(VolumeId volume,
                                         ProtectionGroupId pg);
  storage::NodeResolver MakeResolver();
  engine::ControlPlane MakeControlPlane(NodeId caller, VolumeId volume = 0);
  void CreateSegmentStores(const quorum::PgConfig& config);
  std::unique_ptr<engine::DbInstance> MakeWriter(NodeId id, AzId az,
                                                 VolumeId volume = 0);
  /// Next id for a writer, replica or client node; skips the fixed range
  /// the metadata node and the storage fleet occupy.
  NodeId AllocateNodeId();
  void WireReplica(replica::ReadReplica* rep);
  /// The begin of a change run to completion: probes `config` for the
  /// hydration target (QuorumUnavailable if no read quorum answers within
  /// the probe window), stages the members `next` adds, installs `next`
  /// and starts their hydration pulls. Aborted, before staging anything,
  /// if the group changed during the probe.
  Status AddMembersBlocking(const quorum::PgConfig& config,
                            const quorum::PgConfig& next);
  /// InstallPgConfigAsync run to completion.
  Status InstallPgConfigBlocking(const quorum::PgConfig& old_config,
                                 const quorum::PgConfig& new_config);
  /// Runs the event loop until `member`'s store has hydrated.
  Status AwaitHydratedBlocking(const quorum::SegmentInfo& member);
  Status BootstrapWriterBlocking(engine::DbInstance* writer);
  /// Runs the event loop until the asynchronous operation `start(done)`
  /// calls `done(R)`; TimedOut("<what> did not complete") if it has not
  /// by the blocking deadline.
  template <typename R, typename Start>
  R Await(const char* what, Start start);
  /// One autocommit write on `owner`: `write(txn, then)` issues the write
  /// and `then` commits it. A failed write or commit rolls the
  /// transaction back before the answer, so it keeps no row lock.
  template <typename Write>
  Status AutocommitBlocking(engine::DbInstance* owner, const char* what,
                            Write write);

  AuroraOptions options_;
  sim::Simulator sim_;
  sim::Network network_;
  std::unique_ptr<storage::ObjectStore> object_store_;
  std::unique_ptr<sim::FailureInjector> failure_injector_;
  std::unique_ptr<MetadataService> metadata_;
  PlacementService placement_;
  std::vector<std::unique_ptr<storage::StorageNode>> storage_nodes_;
  std::map<NodeId, storage::StorageNode*> node_index_;
  /// Volume v's writer at index v; slot 0 (the primary writer) exists
  /// from construction and is null until StartBlocking.
  std::vector<std::unique_ptr<engine::DbInstance>> writers_;
  std::vector<std::unique_ptr<engine::DbInstance>> retired_writers_;
  std::vector<std::unique_ptr<replica::ReadReplica>> replicas_;

  NodeId next_node_id_ = 1;
  SegmentId next_segment_id_ = 0;
};

}  // namespace aurora::core
