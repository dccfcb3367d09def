#include "layer_trace.h"

#include "src/core/cluster.h"
#include "src/core/health_monitor.h"
#include "src/core/repair_planner.h"
#include "src/core/session.h"

namespace perfbench {

namespace {

using aurora::core::AuroraCluster;

/// Order-sensitive fold: the result changes whenever any folded value
/// changes (up to 64-bit hash collisions), including non-monotone levels
/// such as queue depths.
struct Fold {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) { h = (h ^ v) * 1099511628211ULL; }
};

uint64_t Sum(const aurora::engine::DriverStats& s) {
  return s.records_sent + s.write_requests + s.acks_received +
         s.stale_epoch_acks + s.retransmissions + s.reads_issued +
         s.read_failures + s.degraded_entries + s.advance_passes;
}

uint64_t Sum(const aurora::engine::BufferCacheStats& s) {
  return s.hits + s.misses + s.evictions + s.wal_blocked_evictions;
}

uint64_t Sum(const aurora::storage::SegmentStats& s) {
  return s.records_received + s.records_duplicate + s.records_coalesced +
         s.records_gossip_filled + s.records_gced + s.records_backed_up +
         s.reads_served + s.reads_rejected + s.stale_epoch_rejections +
         s.scrub_corruptions_found + s.versions_gced;
}

}  // namespace

const char* LayerName(int layer) {
  switch (layer) {
    case kEngine: return "engine";
    case kStorage: return "storage";
    case kReplica: return "replica";
    case kCore: return "core";
  }
  return "?";
}

LayerTrace::LayerTrace(AuroraCluster* cluster, TracedActors actors)
    : cluster_(cluster), actors_(std::move(actors)) {}

LayerTrace::~LayerTrace() { Detach(); }

void LayerTrace::Attach() {
  last_ = Read();
  last_at_ = std::chrono::steady_clock::now();
  cluster_->sim().SetInspector(1, [this]() { OnEvent(); });
  attached_ = true;
}

void LayerTrace::Detach() {
  if (!attached_) return;
  cluster_->sim().ClearInspector();
  attached_ = false;
}

LayerTrace::Signatures LayerTrace::Read() const {
  Signatures sig{};

  Fold engine;
  for (size_t v = 0; v < cluster_->VolumeCount(); ++v) {
    aurora::engine::DbInstance* writer =
        cluster_->writer(static_cast<aurora::VolumeId>(v));
    if (writer == nullptr) continue;
    const auto& db = writer->stats();
    engine.Add(db.puts + db.gets + db.deletes + db.scans + db.commits_acked +
               db.txn_aborts + db.undo_chain_walks + db.crash_recoveries +
               db.leftover_rollbacks);
    if (writer->IsOpen()) engine.Add(Sum(writer->cache().stats()));
    engine.Add(writer->CommitQueueDepth());
    if (writer->driver() != nullptr) engine.Add(Sum(writer->driver()->stats()));
  }
  sig[kEngine] = engine.h;

  Fold storage;
  uint64_t segment_total = 0;
  for (const auto& node : cluster_->storage_nodes()) {
    storage.Add(node->disk().ops_completed());
    storage.Add(node->disk().QueueDepth());
    storage.Add(node->segments().size());
    for (const auto& [id, segment] : node->segments()) {
      segment_total += Sum(segment->stats());
    }
  }
  storage.Add(segment_total);
  storage.Add(cluster_->object_store().puts() +
              cluster_->object_store().gets());
  sig[kStorage] = storage.h;

  Fold replica;
  for (const auto& rep : cluster_->replicas()) {
    const auto& s = rep->stats();
    replica.Add(s.mtrs_applied + s.records_applied +
                s.records_discarded_uncached + s.pages_invalidated + s.gets +
                s.storage_fallback_reads + s.anchored_gets + s.anchor_waits +
                s.anchor_timeouts + s.stream_gaps + s.gap_cache_drops +
                Sum(rep->cache().stats()));
    if (rep->driver() != nullptr) replica.Add(Sum(rep->driver()->stats()));
  }
  sig[kReplica] = replica.h;

  Fold core;
  for (const auto* session : actors_.sessions) {
    const auto& s = session->stats();
    core.Add(s.puts + s.gets + s.scans + s.replica_reads + s.writer_fallbacks);
  }
  if (actors_.monitor != nullptr) {
    core.Add(actors_.monitor->probes_sent() +
             actors_.monitor->probe_timeouts() +
             actors_.monitor->suspicions_declared());
  }
  if (actors_.planner != nullptr) {
    const auto& p = actors_.planner->stats();
    core.Add(p.jobs_started + p.begun + p.committed + p.reverted + p.failed +
             p.aborted_before_begin);
    core.Add(actors_.planner->ActiveCount());
  }
  sig[kCore] = core.h;
  return sig;
}

void LayerTrace::OnEvent() {
  const Signatures now_sig = Read();
  const auto now = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(now - last_at_).count();
  last_at_ = now;
  ++events_;

  int moved = 0;
  for (int l = 0; l < kLayerCount; ++l) moved += now_sig[l] != last_[l];
  if (moved == 0) {
    unattributed_ns_ += ns;
  } else {
    const double share = ns / moved;
    for (int l = 0; l < kLayerCount; ++l) {
      if (now_sig[l] != last_[l]) layer_ns_[l] += share;
    }
  }
  last_ = now_sig;
}

}  // namespace perfbench
