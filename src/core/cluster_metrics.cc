// AuroraCluster::MetricsJson(): the cluster's one metrics surface.
//
// Every actor keeps its bookkeeping in its own plain stats() struct and
// latency histograms (§2.3: consistency points advance "by purely local
// bookkeeping"), counted exactly once where the event happens. This
// renderer records nothing; it reads those counts at call time and sums
// each series over every instance the cluster owns: all writer
// incarnations and their drivers, replicas, storage nodes and their
// segments, and the network. It is the only place metric names are
// spelled; DESIGN.md §5b catalogues them and scripts/docs_check.sh keeps
// the two in step. Counters and histograms are cumulative; gauges read
// live state (current drivers, not retired ones).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace aurora::core {

std::string AuroraCluster::MetricsJson() {
  // The instances each series sums over. Retired writers and drivers
  // (failover, crash recovery) still count; gauges read live ones only.
  std::vector<engine::DbInstance*> live_writers;
  for (auto& db : writers_) {
    if (db != nullptr) live_writers.push_back(db.get());
  }
  std::vector<engine::DbInstance*> writers = live_writers;
  for (auto& db : retired_writers_) writers.push_back(db.get());
  std::vector<replica::ReadReplica*> replicas;
  for (auto& rep : replicas_) replicas.push_back(rep.get());
  std::vector<engine::StorageDriver*> drivers;
  std::vector<engine::StorageDriver*> live_drivers;
  for (engine::DbInstance* db : writers) {
    db->ForEachDriver([&](engine::StorageDriver& d) { drivers.push_back(&d); });
  }
  for (engine::DbInstance* db : live_writers) {
    if (db->driver() != nullptr) live_drivers.push_back(db->driver());
  }
  for (replica::ReadReplica* rep : replicas) {
    drivers.push_back(rep->driver());
    live_drivers.push_back(rep->driver());
  }
  const std::vector<storage::SegmentStats> segments = FleetSegmentStats();

  // Every fixed name renders, as zero when no instance contributes.
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> gauges;
  std::map<std::string, Histogram> histograms;
  auto count = [&counters](const std::string& name, const auto& items,
                           auto value) {
    uint64_t& total = counters[name];
    for (const auto& item : items) total += value(item);
  };
  auto gauge = [&gauges](const std::string& name, const auto& items,
                         auto value) {
    uint64_t& total = gauges[name];
    for (const auto& item : items) total += value(item);
  };
  auto observe = [&histograms](const std::string& name, const auto& items,
                               auto histogram) {
    Histogram& merged = histograms[name];
    for (const auto& item : items) merged.Merge(histogram(item));
  };

  using engine::StorageDriver;
  count("driver.write_requests", drivers,
        [](StorageDriver* d) { return d->stats().write_requests; });
  count("driver.fanout_records", drivers,
        [](StorageDriver* d) { return d->stats().records_sent; });
  count("driver.acks", drivers,
        [](StorageDriver* d) { return d->stats().acks_received; });
  count("driver.stale_epoch_acks", drivers,
        [](StorageDriver* d) { return d->stats().stale_epoch_acks; });
  count("driver.retransmitted_records", drivers,
        [](StorageDriver* d) { return d->stats().retransmissions; });
  count("read.issued", drivers,
        [](StorageDriver* d) { return d->stats().reads_issued; });
  count("read.failures", drivers,
        [](StorageDriver* d) { return d->stats().read_failures; });
  count("read.hedges", drivers,
        [](StorageDriver* d) { return d->router().hedged_reads(); });
  count("aurora.degraded.entered", drivers,
        [](StorageDriver* d) { return d->stats().degraded_entries; });
  gauge("driver.retained_depth", live_drivers,
        [](StorageDriver* d) { return d->RetainedRecords(); });
  gauge("aurora.degraded.active_pgs", live_drivers,
        [](StorageDriver* d) { return d->DegradedPgCount(); });
  gauge("aurora.degraded.parked_records", live_drivers,
        [](StorageDriver* d) { return d->ParkedRecords(); });
  observe("driver.write_ack_us", drivers,
          [](StorageDriver* d) -> auto& { return d->write_ack_latency(); });
  observe("read.latency_us", drivers,
          [](StorageDriver* d) -> auto& { return d->read_latency(); });
  observe("engine.vcl_advance_gap_us", drivers,
          [](StorageDriver* d) -> auto& { return d->vcl_advance_gap(); });
  observe("engine.vdl_advance_gap_us", drivers,
          [](StorageDriver* d) -> auto& { return d->vdl_advance_gap(); });
  observe("aurora.degraded.stall_us", drivers,
          [](StorageDriver* d) -> auto& { return d->degraded_stall(); });

  using engine::DbInstance;
  count("engine.commits_acked", writers,
        [](DbInstance* db) { return db->stats().commits_acked; });
  count("engine.replication_events", writers,
        [](DbInstance* db) { return db->stats().replication_events; });
  count("aurora.degraded.rejected_writes", writers,
        [](DbInstance* db) { return db->stats().degraded_rejected_writes; });
  gauge("engine.commit_queue_depth", live_writers,
        [](DbInstance* db) { return db->CommitQueueDepth(); });
  observe("engine.commit_wait_us", writers,
          [](DbInstance* db) -> auto& { return db->commit_latency(); });

  using replica::ReadReplica;
  count("aurora.read.anchored", replicas, [](ReadReplica* r) {
    return r->stats().anchored_gets + r->stats().anchored_scans;
  });
  count("aurora.read.anchor_waits", replicas,
        [](ReadReplica* r) { return r->stats().anchor_waits; });
  count("aurora.read.anchor_timeouts", replicas,
        [](ReadReplica* r) { return r->stats().anchor_timeouts; });
  count("aurora.read.stream_gaps", replicas,
        [](ReadReplica* r) { return r->stats().stream_gaps; });
  count("aurora.read.gap_cache_drops", replicas,
        [](ReadReplica* r) { return r->stats().gap_cache_drops; });
  gauge("aurora.read.pinned_views", replicas,
        [](ReadReplica* r) { return r->pinned_view_count(); });
  observe("aurora.read.anchor_wait_us", replicas,
          [](ReadReplica* r) -> auto& { return r->anchor_wait(); });
  observe("replica.stream_lag_us", replicas,
          [](ReadReplica* r) -> auto& { return r->replica_lag(); });
  // Writer-side view of each replica's PGMRPL feedback (§3.4): how far
  // its last reported read point trails the writer's VDL.
  if (engine::DbInstance* primary = writer()) {
    const Lsn vdl = primary->vdl();
    for (const auto& [id, point] : primary->replica_read_points()) {
      if (point == kInvalidLsn) continue;
      gauges["replica.lag_lsns." + std::to_string(id)] =
          vdl > point ? vdl - point : 0;
    }
  }

  using storage::SegmentStats;
  count("storage.records_received", segments,
        [](const SegmentStats& s) { return s.records_received; });
  count("storage.reads_served", segments,
        [](const SegmentStats& s) { return s.reads_served; });
  count("storage.scl_advances", segments,
        [](const SegmentStats& s) { return s.scl_advances; });
  count("storage.gossip_rounds", segments,
        [](const SegmentStats& s) { return s.gossip_rounds; });
  count("storage.gossip_filled_records", segments,
        [](const SegmentStats& s) { return s.records_gossip_filled; });
  count("storage.scrub_runs", segments,
        [](const SegmentStats& s) { return s.scrub_runs; });
  count("storage.scrub_corruptions", segments,
        [](const SegmentStats& s) { return s.scrub_corruptions_found; });
  count("storage.stale_epoch_rejections", segments,
        [](const SegmentStats& s) { return s.stale_epoch_rejections; });
  count("storage.records_coalesced", segments,
        [](const SegmentStats& s) { return s.records_coalesced; });
  count("storage.versions_gced", segments,
        [](const SegmentStats& s) { return s.versions_gced; });
  std::vector<const storage::SegmentStore*> live_segments;
  for (auto& node : storage_nodes_) {
    for (const auto& [id, segment] : node->segments()) {
      live_segments.push_back(segment.get());
    }
  }
  gauge("storage.version_bytes", live_segments,
        [](const storage::SegmentStore* s) { return s->TotalVersionBytes(); });
  // Per-tenant DRR accounting (DESIGN.md §11), one series per volume.
  for (auto& node : storage_nodes_) {
    for (VolumeId volume : node->TenantIds()) {
      const storage::TenantStats t = node->tenant_stats(volume);
      const std::string suffix = "." + std::to_string(volume);
      counters["aurora.tenant.records" + suffix] += t.records;
      counters["aurora.tenant.bytes" + suffix] += t.bytes;
      counters["aurora.tenant.throttled" + suffix] += t.throttled;
      gauges["aurora.tenant.queue_depth" + suffix] += t.queue_depth;
    }
  }

  const sim::NetworkStats& net = network_.stats();
  counters["net.messages_sent"] = net.messages_sent;
  counters["net.bytes_sent"] = net.bytes_sent;
  counters["net.messages_dropped"] = net.messages_dropped;
  counters["net.partitions_set"] = net.partitions_set;
  gauges["net.active_partitions"] = network_.ActivePartitions();

  std::string out = "{";
  bool first = true;
  auto append = [&out, &first](const std::string& name,
                               const std::string& value) {
    out += first ? "\n  \"" : ",\n  \"";
    out += name + "\": " + value;
    first = false;
  };
  for (const auto& [name, value] : counters) {
    append(name, std::to_string(value));
  }
  for (const auto& [name, value] : gauges) {
    append(name, std::to_string(value));
  }
  for (const auto& [name, h] : histograms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %llu, \"mean_us\": %.1f, \"p50_us\": %lld, "
                  "\"p99_us\": %lld, \"max_us\": %lld}",
                  static_cast<unsigned long long>(h.count()), h.Mean(),
                  static_cast<long long>(h.P50()),
                  static_cast<long long>(h.P99()),
                  static_cast<long long>(h.max()));
    append(name, buf);
  }
  out += "\n}\n";
  return out;
}

}  // namespace aurora::core
