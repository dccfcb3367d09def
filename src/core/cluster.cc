#include "src/core/cluster.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/engine/recovery_plan.h"
#include "src/sim/rpc.h"
#include "src/storage/call.h"

namespace aurora::core {

// ---------------------------------------------------------------------------
// MetadataService
// ---------------------------------------------------------------------------

MetadataService::MetadataService(sim::Network* network, NodeId id, AzId az)
    : network_(network), id_(id) {
  network_->RegisterNode(id_, az);
  volumes_[0];  // the primary volume's lineage always exists, epoch 1
}

MetadataService::VolumeState& MetadataService::StateFor(VolumeId volume) {
  return volumes_[volume];
}

const MetadataService::VolumeState& MetadataService::StateFor(
    VolumeId volume) const {
  auto it = volumes_.find(volume);
  assert(it != volumes_.end() && "unknown volume");
  return it->second;
}

VolumeEpoch MetadataService::volume_epoch(VolumeId volume) const {
  return StateFor(volume).epoch;
}

const quorum::VolumeGeometry& MetadataService::geometry(
    VolumeId volume) const {
  return StateFor(volume).geometry;
}

quorum::VolumeGeometry& MetadataService::mutable_geometry(VolumeId volume) {
  return StateFor(volume).geometry;
}

void MetadataService::SetGeometry(quorum::VolumeGeometry geometry,
                                  VolumeId volume) {
  StateFor(volume).geometry = std::move(geometry);
}

std::vector<VolumeId> MetadataService::VolumeIds() const {
  std::vector<VolumeId> ids;
  ids.reserve(volumes_.size());
  for (const auto& [volume, _] : volumes_) ids.push_back(volume);
  return ids;
}

namespace {
/// Control-plane message sizes: requests and epoch replies fit the fixed
/// envelope; a geometry reply is billed as 1 KB.
constexpr uint64_t kControlMessageBytes = 64;
constexpr uint64_t kGeometryReplyBytes = 1024;
}  // namespace

void MetadataService::IncrementVolumeEpoch(
    NodeId caller, VolumeId volume, std::function<void(VolumeEpoch)> cb) {
  sim::UnaryCall<VolumeEpoch>(
      network_, caller, id_, kControlMessageBytes,
      [this, volume](sim::ReplyFn<VolumeEpoch> reply) {
        reply(++StateFor(volume).epoch);
      },
      [](VolumeEpoch) { return kControlMessageBytes; }, std::move(cb));
}

void MetadataService::FetchGeometry(
    NodeId caller, VolumeId volume,
    std::function<void(quorum::VolumeGeometry, VolumeEpoch)> cb) {
  using Reply = std::pair<quorum::VolumeGeometry, VolumeEpoch>;
  sim::UnaryCall<Reply>(
      network_, caller, id_, kControlMessageBytes,
      [this, volume](sim::ReplyFn<Reply> reply) {
        const VolumeState& state = StateFor(volume);
        reply(Reply{state.geometry, state.epoch});
      },
      [](const Reply&) { return kGeometryReplyBytes; },
      [cb = std::move(cb)](Reply reply) {
        cb(std::move(reply.first), reply.second);
      });
}

// ---------------------------------------------------------------------------
// AuroraCluster assembly
// ---------------------------------------------------------------------------

namespace {
constexpr NodeId kMetadataNode = 90;
constexpr NodeId kFirstStorageNode = 100;
/// Default deadline for the *Blocking helpers (RunUntil with timeout 0).
constexpr SimDuration kBlockingTimeout = 60 * kSecond;
/// How long a manual membership change waits for a read quorum of SCLs.
constexpr SimDuration kSclProbeWindow = 5 * kSecond;
}  // namespace

template <typename R, typename Start>
R AuroraCluster::Await(const char* what, Start start) {
  bool answered = false;
  R result = Status::Internal("unset");
  start([&answered, &result](R r) {
    result = std::move(r);
    answered = true;
  });
  if (!RunUntil([&]() { return answered; })) {
    return Status::TimedOut(std::string(what) + " did not complete");
  }
  return result;
}

template <typename Write>
Status AuroraCluster::AutocommitBlocking(engine::DbInstance* owner,
                                         const char* what, Write write) {
  const TxnId txn = owner->Begin();
  Status answer = Await<Status>(what, [&](auto done) {
    // Commits on success, else answers the write's own error.
    write(txn, [owner, txn, done](Status st) {
      if (!st.ok()) {
        done(std::move(st));
        return;
      }
      owner->Commit(txn, done);
    });
  });
  // A failed write or commit leaves the transaction active and holding
  // its row lock; roll it back before answering.
  if (!answer.ok() && owner->txns().IsActive(txn)) {
    (void)Await<Status>("rollback",
                        [&](auto done) { owner->Rollback(txn, done); });
  }
  return answer;
}

AuroraCluster::AuroraCluster(AuroraOptions options)
    : options_(options), sim_(options.seed), network_(&sim_) {
  object_store_ = std::make_unique<storage::ObjectStore>(&sim_);
  failure_injector_ = std::make_unique<sim::FailureInjector>(&sim_, &network_);
  metadata_ = std::make_unique<MetadataService>(&network_, kMetadataNode, 0);
  NodeId id = kFirstStorageNode;
  for (size_t az = 0; az < quorum::kAzCount; ++az) {
    for (size_t i = 0; i < options_.storage_nodes_per_az; ++i) {
      auto node = std::make_unique<storage::StorageNode>(
          &sim_, &network_, id, static_cast<AzId>(az), object_store_.get(),
          options_.storage_node);
      node_index_[id] = node.get();
      storage_nodes_.push_back(std::move(node));
      ++id;
    }
  }
  auto resolver = MakeResolver();
  for (auto& node : storage_nodes_) {
    node->SetResolver(resolver);
    placement_.RegisterServer(node->id(), node->az());
  }
  // Placement reads fleet ground truth at decision time: hosted segment
  // counts balance load across volumes as PGs are placed.
  placement_.SetLoadSource([this](NodeId id) {
    auto it = node_index_.find(id);
    return it == node_index_.end() ? 0 : it->second->segments().size();
  });
  placement_.SetLiveness([this](NodeId id) { return network_.IsUp(id); });
  writers_.resize(1);  // the primary writer's slot, filled at start
}

AuroraCluster::~AuroraCluster() = default;

storage::NodeResolver AuroraCluster::MakeResolver() {
  return [this](NodeId id) -> storage::StorageNode* {
    auto it = node_index_.find(id);
    return it == node_index_.end() ? nullptr : it->second;
  };
}

engine::ControlPlane AuroraCluster::MakeControlPlane(NodeId caller,
                                                     VolumeId volume) {
  // The volume is bound into the closures, so the engine stays
  // volume-oblivious: each writer talks to "its" metadata authority and
  // never sees another tenant's epochs or geometry.
  engine::ControlPlane cp;
  cp.increment_volume_epoch =
      [this, caller, volume](std::function<void(VolumeEpoch)> cb) {
        metadata_->IncrementVolumeEpoch(caller, volume, std::move(cb));
      };
  cp.fetch_geometry =
      [this, caller, volume](
          std::function<void(quorum::VolumeGeometry, VolumeEpoch)> cb) {
        metadata_->FetchGeometry(caller, volume, std::move(cb));
      };
  return cp;
}

Result<quorum::PgConfig> AuroraCluster::PlacePgConfig(VolumeId volume,
                                                      ProtectionGroupId pg) {
  auto members = placement_.PlacePg(
      volume, options_.quorum_model, [this]() { return next_segment_id_++; });
  if (!members.ok()) return members.status();
  return quorum::PgConfig::Create(pg, options_.quorum_model,
                                  std::move(members).value());
}

void AuroraCluster::CreateSegmentStores(const quorum::PgConfig& config) {
  for (const auto& member : config.AllMembers()) {
    storage::StorageNode* node = node_index_.at(member.node);
    node->AddSegment(member, config.pg(), config,
                     metadata_->volume_epoch(member.volume));
  }
}

std::unique_ptr<engine::DbInstance> AuroraCluster::MakeWriter(
    NodeId id, AzId az, VolumeId volume) {
  return std::make_unique<engine::DbInstance>(
      &sim_, &network_, id, az, MakeResolver(),
      MakeControlPlane(id, volume), options_.db);
}

Status AuroraCluster::BootstrapWriterBlocking(engine::DbInstance* writer) {
  return Await<Status>("bootstrap",
                       [&](auto done) { writer->Bootstrap(done); });
}

Status AuroraCluster::StartBlocking() {
  for (VolumeId volume = 0; volume < options_.volumes; ++volume) {
    std::vector<quorum::PgConfig> pgs;
    for (size_t pg = 0; pg < options_.num_pgs; ++pg) {
      auto config = PlacePgConfig(volume, static_cast<ProtectionGroupId>(pg));
      if (!config.ok()) return config.status();
      pgs.push_back(std::move(config).value());
    }
    metadata_->SetGeometry(quorum::VolumeGeometry(options_.blocks_per_pg, pgs),
                           volume);
    // Stores are created once the whole volume is placed, so the load
    // probe balances volumes across servers while one volume's PGs see
    // equal loads and share servers (DESIGN.md §11).
    for (const auto& pg : pgs) CreateSegmentStores(pg);
  }
  for (auto& node : storage_nodes_) node->StartBackground();

  writers_[0] = MakeWriter(AllocateNodeId(), 0);
  AURORA_RETURN_IF_ERROR(BootstrapWriterBlocking(writers_[0].get()));
  // Tenant writers (volumes 1..N-1), spread across AZs, bootstrapped
  // sequentially: each recovers its own volume independently.
  for (VolumeId volume = 1; volume < options_.volumes; ++volume) {
    const AzId az = static_cast<AzId>(volume % quorum::kAzCount);
    auto writer = MakeWriter(AllocateNodeId(), az, volume);
    AURORA_RETURN_IF_ERROR(BootstrapWriterBlocking(writer.get()));
    writers_.push_back(std::move(writer));
  }
  return Status::OK();
}

engine::DbInstance* AuroraCluster::writer(VolumeId volume) {
  return volume < writers_.size() ? writers_[volume].get() : nullptr;
}

storage::StorageNode* AuroraCluster::node(NodeId id) {
  auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : it->second;
}

std::vector<NodeId> AuroraCluster::StorageNodeIds() const {
  std::vector<NodeId> ids;
  for (const auto& node : storage_nodes_) ids.push_back(node->id());
  return ids;
}

std::vector<AzId> AuroraCluster::AzIds() const {
  std::vector<AzId> ids;
  for (size_t az = 0; az < quorum::kAzCount; ++az) {
    ids.push_back(static_cast<AzId>(az));
  }
  return ids;
}

storage::StorageNode* AuroraCluster::NodeForSegment(SegmentId segment) {
  for (auto& node : storage_nodes_) {
    if (node->FindSegment(segment) != nullptr) return node.get();
  }
  return nullptr;
}

void AuroraCluster::ForEachSegment(
    const std::function<void(storage::StorageNode*, storage::SegmentStore*)>&
        fn) {
  for (auto& node : storage_nodes_) {
    for (auto& [id, segment] : node->segments()) {
      fn(node.get(), segment.get());
    }
  }
}

std::vector<storage::SegmentStats> AuroraCluster::FleetSegmentStats() const {
  std::vector<storage::SegmentStats> out;
  for (const auto& node : storage_nodes_) {
    for (const auto& [id, segment] : node->segments()) {
      out.push_back(segment->stats());
    }
  }
  for (const auto& node : storage_nodes_) {
    const auto& dropped = node->dropped_segment_stats();
    out.insert(out.end(), dropped.begin(), dropped.end());
  }
  return out;
}

void AuroraCluster::ForEachPgConfig(
    const std::function<void(VolumeId, const quorum::PgConfig&)>& fn) const {
  for (VolumeId volume : metadata_->VolumeIds()) {
    for (const auto& pg : metadata_->geometry(volume).pgs()) {
      fn(volume, pg);
    }
  }
}

VolumeId AuroraCluster::VolumeOf(const quorum::PgConfig& config) {
  for (const auto& slot : config.slots()) {
    if (!slot.empty()) return slot.front().volume;
  }
  return 0;
}

const quorum::PgConfig* AuroraCluster::FindConfigForSegment(
    SegmentId segment, VolumeId* volume_out) const {
  for (VolumeId volume : metadata_->VolumeIds()) {
    for (const auto& pg : metadata_->geometry(volume).pgs()) {
      if (pg.ContainsSegment(segment)) {
        if (volume_out != nullptr) *volume_out = volume;
        return &pg;
      }
    }
  }
  return nullptr;
}

bool AuroraCluster::RunUntil(const std::function<bool()>& pred,
                             SimDuration timeout) {
  if (timeout == 0) timeout = kBlockingTimeout;
  const SimTime deadline = sim_.Now() + timeout;
  while (!pred()) {
    if (sim_.Now() >= deadline) return false;
    if (!sim_.Step()) return pred();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Replicas & failover
// ---------------------------------------------------------------------------

NodeId AuroraCluster::AllocateNodeId() {
  // Ids below the metadata node are handed out in order; once the counter
  // reaches it, allocation continues after the last storage node, so a
  // dynamic id never aliases the metadata node or a server.
  if (next_node_id_ == kMetadataNode) {
    next_node_id_ =
        kFirstStorageNode + static_cast<NodeId>(storage_nodes_.size());
  }
  return next_node_id_++;
}

NodeId AuroraCluster::RegisterClientNode(AzId az) {
  const NodeId id = AllocateNodeId();
  network_.RegisterNode(id, az, nullptr);
  return id;
}

replica::ReadReplica* AuroraCluster::AddReplica() {
  if (replicas_.size() >= kMaxReplicas) return nullptr;
  const NodeId id = AllocateNodeId();
  const AzId az = static_cast<AzId>(replicas_.size() % quorum::kAzCount);
  auto rep = std::make_unique<replica::ReadReplica>(
      &sim_, &network_, id, az, MakeResolver(), writer()->id(),
      metadata_->geometry(), metadata_->volume_epoch(), options_.replica);
  replica::ReadReplica* raw = rep.get();
  replicas_.push_back(std::move(rep));
  WireReplica(raw);
  raw->Start();
  return raw;
}

void AuroraCluster::WireReplica(replica::ReadReplica* rep) {
  engine::DbInstance* writer = this->writer();
  writer->AddReplicationSink(rep->id(),
                             [rep](engine::ReplicationEvent event) {
                               rep->OnReplicationEvent(event);
                             });
  const NodeId rep_id = rep->id();
  rep->SetReadPointReporter([writer, rep_id](Lsn point) {
    writer->ObserveReplicaReadPoint(rep_id, point);
  });
}

std::unique_ptr<engine::DbInstance> AuroraCluster::CreateDetachedInstance() {
  return MakeWriter(AllocateNodeId(), 0);
}

Result<engine::DbInstance*> AuroraCluster::FailoverBlocking() {
  std::unique_ptr<engine::DbInstance>& primary = writers_[0];
  if (primary && network_.IsUp(primary->id())) {
    network_.Crash(primary->id());
  }
  // Promote: a fresh instance runs crash recovery against shared storage;
  // "if a commit has been marked durable and acknowledged to the client,
  // there is no data loss" (§3.2).
  retired_writers_.push_back(std::move(primary));
  primary = MakeWriter(AllocateNodeId(), 0);
  AURORA_RETURN_IF_ERROR(Await<Status>(
      "failover recovery", [&](auto done) { primary->Open(done); }));
  // Re-attach replicas to the new writer's stream.
  for (auto& rep : replicas_) {
    WireReplica(rep.get());
    rep->UpdateGeometry(metadata_->geometry(), metadata_->volume_epoch());
  }
  return primary.get();
}

// ---------------------------------------------------------------------------
// Simple data-path helpers
// ---------------------------------------------------------------------------

Status AuroraCluster::PutBlocking(const std::string& key,
                                  const std::string& value) {
  return PutBlocking(0, key, value);
}

Status AuroraCluster::PutBlocking(VolumeId volume, const std::string& key,
                                  const std::string& value) {
  engine::DbInstance* owner = writer(volume);
  if (owner == nullptr) return Status::NotFound("no such volume");
  return AutocommitBlocking(owner, "put", [&](TxnId txn, auto then) {
    owner->Put(txn, key, value, std::move(then));
  });
}

Result<std::string> AuroraCluster::GetBlocking(const std::string& key) {
  return GetBlocking(0, key);
}

Result<std::string> AuroraCluster::GetBlocking(VolumeId volume,
                                               const std::string& key) {
  engine::DbInstance* owner = writer(volume);
  if (owner == nullptr) return Status::NotFound("no such volume");
  return Await<Result<std::string>>(
      "get", [&](auto done) { owner->Get(kInvalidTxn, key, done); });
}

Status AuroraCluster::DeleteBlocking(const std::string& key) {
  engine::DbInstance* owner = writer();
  return AutocommitBlocking(owner, "delete", [&](TxnId txn, auto then) {
    owner->Delete(txn, key, std::move(then));
  });
}

Status AuroraCluster::CommitBlocking(TxnId txn) {
  return Await<Status>("commit",
                       [&](auto done) { writer()->Commit(txn, done); });
}

Status AuroraCluster::RollbackBlocking(TxnId txn) {
  return Await<Status>("rollback",
                       [&](auto done) { writer()->Rollback(txn, done); });
}

// ---------------------------------------------------------------------------
// Fault & membership operations
// ---------------------------------------------------------------------------

void AuroraCluster::CrashWriter() {
  if (writer() != nullptr) network_.Crash(writer()->id());
}

Status AuroraCluster::RecoverWriterBlocking() {
  engine::DbInstance* primary = writer();
  if (primary == nullptr) return Status::Internal("no writer");
  network_.Restart(primary->id());
  const Status result =
      Await<Status>("recovery", [&](auto done) { primary->Open(done); });
  if (result.ok()) {
    for (auto& rep : replicas_) {
      WireReplica(rep.get());
      rep->UpdateGeometry(metadata_->geometry(), metadata_->volume_epoch());
    }
  }
  return result;
}

void AuroraCluster::ProbeSclsAsync(
    const quorum::PgConfig& config,
    std::shared_ptr<engine::SclProbeReplies> replies,
    std::function<void()> on_reply) {
  for (const auto& member : config.AllMembers()) {
    storage::Call<&storage::StorageNode::HandleSegmentState>(
        &network_, metadata_->id(), member.node,
        [this](NodeId id) { return node(id); },
        storage::SegmentStateRequest{member.id},
        [replies, on_reply, responder = member.id](
            storage::SegmentStateResponse response) {
          if (!response.status.ok() || !response.hydrated) return;
          // Keyed by responder: a repeat reply (a later round, or a stale
          // duplicate of an earlier one) can only raise that member's SCL,
          // never add a member to the quorum.
          auto [slot, fresh] = replies->try_emplace(responder, response);
          if (!fresh && response.scl > slot->second.scl) {
            slot->second = std::move(response);
          }
          if (on_reply) on_reply();
        });
  }
}

Result<std::vector<quorum::SegmentInfo>> AuroraCluster::PlaceFreshMembers(
    const quorum::PgConfig& config, AzId az, size_t count) {
  // Never co-locate two members of one protection group: a node failure
  // must cost the quorum at most one member. Placement applies that rule
  // and picks the least-loaded candidate, balancing repair traffic across
  // the shared fleet.
  std::vector<quorum::SegmentInfo> fresh;
  std::set<NodeId> taken;
  while (fresh.size() < count) {
    auto host = placement_.PickReplacement(config, az, taken);
    if (!host.ok()) return host.status();
    taken.insert(*host);
    fresh.push_back({.node = *host, .az = az, .volume = VolumeOf(config)});
  }
  for (auto& member : fresh) member.id = next_segment_id_++;
  return fresh;
}

std::vector<quorum::SegmentInfo> AuroraCluster::StageFreshMembers(
    const quorum::PgConfig& config, const quorum::PgConfig& next,
    Lsn target_scl) {
  std::vector<quorum::SegmentInfo> staged;
  for (const auto& member : next.AllMembers()) {
    if (config.ContainsSegment(member.id)) continue;
    node_index_.at(member.node)
        ->AddSegment(member, next.pg(), next,
                     metadata_->volume_epoch(member.volume),
                     /*hydrated=*/false)
        ->BeginHydration(target_scl);
    staged.push_back(member);
  }
  return staged;
}

void AuroraCluster::DropDepartedMembers(const quorum::PgConfig& before,
                                        const quorum::PgConfig& after) {
  for (const auto& member : before.AllMembers()) {
    if (!after.ContainsSegment(member.id)) {
      node_index_.at(member.node)->DropSegment(member.id);
    }
  }
}

Status AuroraCluster::AddMembersBlocking(const quorum::PgConfig& config,
                                         const quorum::PgConfig& next) {
  // Hydration target: the SCL a read quorum of `config` vouches for.
  auto replies = std::make_shared<engine::SclProbeReplies>();
  auto target = std::make_shared<std::optional<engine::QuorumScl>>();
  ProbeSclsAsync(config, replies, [config, replies, target]() {
    *target = engine::ReadQuorumScl(config, *replies);
  });
  if (!RunUntil([&]() { return target->has_value(); }, kSclProbeWindow)) {
    return Status::QuorumUnavailable(
        "no read quorum of hydrated members answered the SCL probe");
  }
  // The probe pumps the event loop, so the group may change under it (the
  // repair planner); then this change no longer applies.
  if (metadata_->geometry(VolumeOf(config)).Pg(config.pg()) != config) {
    return Status::Aborted("the group changed during the SCL probe");
  }
  const auto staged = StageFreshMembers(config, next, (*target)->scl);
  AURORA_RETURN_IF_ERROR(InstallPgConfigBlocking(config, next));
  for (const auto& member : staged) {
    node_index_.at(member.node)->StartHydrationPull(member.id);
  }
  return Status::OK();
}

Status AuroraCluster::AwaitHydratedBlocking(
    const quorum::SegmentInfo& member) {
  storage::StorageNode* host = node_index_.at(member.node);
  // Looked up at every step: a concurrent revert (the repair planner) may
  // drop the store while the loop runs.
  const auto settled = [&]() {
    const storage::SegmentStore* store = host->FindSegment(member.id);
    return store == nullptr || store->hydrated();
  };
  if (!RunUntil(settled)) {
    return Status::TimedOut("fresh member did not hydrate");
  }
  if (host->FindSegment(member.id) == nullptr) {
    return Status::NotFound("fresh member no longer hosted");
  }
  return Status::OK();
}

Status AuroraCluster::InstallPgConfigBlocking(
    const quorum::PgConfig& old_config, const quorum::PgConfig& new_config) {
  auto result = std::make_shared<std::optional<Status>>();
  InstallPgConfigAsync(
      old_config, new_config,
      [result](Status st) { *result = std::move(st); }, kBlockingTimeout);
  RunUntil([&]() { return result->has_value(); });
  return result->value_or(Status::QuorumUnavailable(
      "membership epoch increment did not reach write quorum"));
}

void AuroraCluster::InstallPgConfigAsync(const quorum::PgConfig& old_config,
                                         const quorum::PgConfig& new_config,
                                         std::function<void(Status)> done,
                                         SimDuration timeout) {
  assert(quorum::TransitionIsSafe(old_config, new_config));
  // An epoch increment requires a write quorum, like any other write
  // (§4.1): the new config goes to every member, and the OLD config's
  // write set must acknowledge it.
  struct InstallState {
    quorum::SegmentSet acks;
    quorum::QuorumSet write_set;
    bool finished = false;
  };
  auto state = std::make_shared<InstallState>();
  state->write_set = old_config.WriteSet();
  const VolumeId volume = VolumeOf(new_config);
  for (const auto& member : new_config.AllMembers()) {
    storage::MembershipUpdateRequest request;
    request.segment = member.id;
    request.expected_epoch = old_config.epoch();
    request.config = new_config;
    request.volume_epoch = metadata_->volume_epoch(volume);
    storage::Call<&storage::StorageNode::HandleMembershipUpdate>(
        &network_, metadata_->id(), member.node,
        [this](NodeId id) { return node(id); }, std::move(request),
        [this, state, seg = member.id, new_config, volume,
         done](storage::MembershipUpdateResponse response) {
          if (state->finished) return;
          // A StaleEpoch reply from a node that already holds this very
          // config is an ack: that is what makes install retries
          // idempotent instead of wedging half-installed. A different
          // config at the same epoch (a concurrent change of the group)
          // is not.
          const bool accepted = response.status.ok() ||
                                (response.status.IsStaleEpoch() &&
                                 response.config == new_config);
          if (!accepted) return;
          state->acks.insert(seg);
          if (!state->write_set.SatisfiedBy(state->acks)) return;
          state->finished = true;
          Status update =
              metadata_->mutable_geometry(volume).UpdatePg(new_config);
          if (!update.ok()) {
            done(std::move(update));
            return;
          }
          engine::DbInstance* owner = writer(volume);
          if (owner != nullptr && owner->driver() != nullptr) {
            owner->driver()->UpdatePgConfig(new_config);
          }
          if (volume == 0) {
            for (auto& rep : replicas_) {
              rep->UpdateGeometry(metadata_->geometry(),
                                  metadata_->volume_epoch());
            }
          }
          done(Status::OK());
        });
  }
  sim_.Schedule(
      timeout,
      [state, done]() {
        if (state->finished) return;
        state->finished = true;
        done(Status::QuorumUnavailable(
            "membership epoch increment did not reach write quorum"));
      },
      "cluster.install_timeout");
}

Result<MembershipChangeReport> AuroraCluster::BeginReplaceBlocking(
    SegmentId old_segment) {
  const quorum::PgConfig* config = FindConfigForSegment(old_segment);
  if (config == nullptr) return Status::NotFound("segment not in volume");
  // The replacement goes in the suspect's AZ (preserves AZ+1 tolerance).
  auto fresh =
      PlaceFreshMembers(*config, config->FindSegment(old_segment)->az, 1);
  if (!fresh.ok()) return fresh.status();
  auto next = config->BeginReplace(old_segment, fresh->front());
  if (!next.ok()) return next.status();
  // A copy: the geometry entry `config` points at may change while the
  // change pumps the event loop.
  const quorum::PgConfig current = *config;
  AURORA_RETURN_IF_ERROR(AddMembersBlocking(current, *next));
  return MembershipChangeReport{fresh->front().id, next->epoch()};
}

Status AuroraCluster::CommitReplaceBlocking(SegmentId old_segment) {
  const quorum::PgConfig* config = FindConfigForSegment(old_segment);
  if (config == nullptr) return Status::NotFound("segment not in volume");
  auto next = config->CommitReplace(old_segment);
  if (!next.ok()) return next.status();
  const quorum::PgConfig dual = *config;
  // The replacement in `old_segment`'s own slot must be hydrated before
  // the old member's data can be abandoned ("we do not discard any
  // durable state until back to a fully repaired quorum", §4.1).
  const quorum::SegmentInfo replacement = *dual.PendingPartner(old_segment);
  node_index_.at(replacement.node)->StartHydrationPull(replacement.id);
  AURORA_RETURN_IF_ERROR(AwaitHydratedBlocking(replacement));
  AURORA_RETURN_IF_ERROR(InstallPgConfigBlocking(dual, *next));
  DropDepartedMembers(dual, *next);
  return Status::OK();
}

Status AuroraCluster::RevertReplaceBlocking(SegmentId old_segment) {
  const quorum::PgConfig* config = FindConfigForSegment(old_segment);
  if (config == nullptr) return Status::NotFound("segment not in volume");
  auto next = config->RevertReplace(old_segment);
  if (!next.ok()) return next.status();
  const quorum::PgConfig dual = *config;
  AURORA_RETURN_IF_ERROR(InstallPgConfigBlocking(dual, *next));
  DropDepartedMembers(dual, *next);
  return Status::OK();
}

Result<MembershipChangeReport> AuroraCluster::ReplaceSegmentBlocking(
    SegmentId old_segment) {
  auto report = BeginReplaceBlocking(old_segment);
  if (!report.ok()) return report;
  Status commit = CommitReplaceBlocking(old_segment);
  if (!commit.ok()) return commit;
  if (const quorum::PgConfig* final_config =
          FindConfigForSegment(report->new_segment)) {
    report->final_epoch = final_config->epoch();
  }
  return report;
}

Lsn AuroraCluster::ArchiveHorizon() const {
  Lsn horizon = kInvalidLsn;
  bool first = true;
  for (const auto& pg : metadata_->geometry().pgs()) {
    // A group that has never received a record (e.g. just added by volume
    // growth) does not bound the horizon — there is nothing of it to
    // restore.
    bool has_data = false;
    for (const auto& member : pg.AllMembers()) {
      auto it = node_index_.find(member.node);
      if (it == node_index_.end()) continue;
      storage::SegmentStore* segment = it->second->FindSegment(member.id);
      if (segment != nullptr && segment->scl() != kInvalidLsn) {
        has_data = true;
        break;
      }
    }
    if (!has_data) continue;
    const Lsn max_archived = object_store_->MaxArchivedLsn(pg.pg());
    if (first || max_archived < horizon) horizon = max_archived;
    first = false;
  }
  return horizon;
}

Status AuroraCluster::RestoreToPointBlocking(Lsn restore_point) {
  if (restore_point == kInvalidLsn || restore_point > ArchiveHorizon()) {
    return Status::InvalidArgument(
        "restore point beyond the archive horizon");
  }
  if (writer() != nullptr && network_.IsUp(writer()->id())) {
    network_.Crash(writer()->id());
  }
  // Reload every segment from the per-PG archive. This is an offline
  // storage operation: segment state (disk) is rewritten even on nodes
  // that are currently down.
  for (const auto& pg : metadata_->geometry().pgs()) {
    bool fetched = false;
    std::vector<log::SealedRecord> records;
    object_store_->Get(pg.pg(), 1, restore_point,
                       [&](std::vector<log::SealedRecord> r) {
                         records = std::move(r);
                         fetched = true;
                       });
    if (!RunUntil([&]() { return fetched; })) {
      return Status::TimedOut("archive fetch did not complete");
    }
    for (const auto& member : pg.AllMembers()) {
      storage::StorageNode* node = node_index_.at(member.node);
      storage::SegmentStore* segment = node->FindSegment(member.id);
      if (segment == nullptr) {
        segment = node->AddSegment(member, pg.pg(), pg,
                                   metadata_->volume_epoch());
      }
      segment->ResetToArchive(records, restore_point,
                              metadata_->volume_epoch());
    }
  }
  // Replica caches hold pages from the abandoned timeline: bounce them.
  for (auto& rep : replicas_) {
    network_.Crash(rep->id());
    network_.Restart(rep->id());
  }
  // Open a fresh writer against the restored volume; ordinary crash
  // recovery recomputes VDL (== the restore point rounded to the last
  // complete MTR) and fences the old timeline with a new volume epoch.
  auto promoted = FailoverBlocking();
  if (!promoted.ok()) return promoted.status();
  for (auto& rep : replicas_) rep->Start();
  return Status::OK();
}

Status AuroraCluster::ShrinkAfterAzLossBlocking(AzId lost_az) {
  // Each PG transitions independently; all use the surviving members'
  // write quorum to install the epoch increment. An AZ loss hits every
  // tenant on the shared fleet, so all volumes shrink.
  for (VolumeId volume : metadata_->VolumeIds()) {
    // Copy: InstallPgConfigBlocking mutates the geometry mid-iteration.
    const std::vector<quorum::PgConfig> pgs =
        metadata_->geometry(volume).pgs();
    for (const auto& pg : pgs) {
      auto next = pg.ShrinkAfterAzLoss(lost_az);
      if (!next.ok()) return next.status();
      AURORA_RETURN_IF_ERROR(InstallPgConfigBlocking(pg, *next));
    }
  }
  return Status::OK();
}

Status AuroraCluster::ExpandToSixBlocking(AzId restored_az) {
  for (VolumeId volume : metadata_->VolumeIds()) {
    const std::vector<quorum::PgConfig> shrunk =
        metadata_->geometry(volume).pgs();
    for (const auto& pg : shrunk) {
      if (pg.slots().size() >= 6) continue;
      auto fresh = PlaceFreshMembers(pg, restored_az, quorum::kCopiesPerAz);
      if (!fresh.ok()) return fresh.status();
      auto next = pg.ExpandToSix(*fresh);
      if (!next.ok()) return next.status();
      AURORA_RETURN_IF_ERROR(AddMembersBlocking(pg, *next));
      for (const auto& member : *fresh) {
        AURORA_RETURN_IF_ERROR(AwaitHydratedBlocking(member));
      }
    }
  }
  return Status::OK();
}

Status AuroraCluster::GrowVolumeBlocking(VolumeId volume) {
  engine::DbInstance* owner = writer(volume);
  if (volume != 0 && owner == nullptr) {
    return Status::NotFound("no such volume");
  }
  const auto pg_id =
      static_cast<ProtectionGroupId>(metadata_->geometry(volume).PgCount());
  auto placed = PlacePgConfig(volume, pg_id);
  if (!placed.ok()) return placed.status();
  const quorum::PgConfig config = std::move(placed).value();
  CreateSegmentStores(config);
  metadata_->mutable_geometry(volume).AddPg(config);
  if (owner != nullptr && owner->driver() != nullptr) {
    owner->driver()->SetGeometry(metadata_->geometry(volume),
                                 owner->volume_epoch());
  }
  if (volume == 0) {
    for (auto& rep : replicas_) {
      rep->UpdateGeometry(metadata_->geometry(), metadata_->volume_epoch());
    }
  }
  return Status::OK();
}

}  // namespace aurora::core
