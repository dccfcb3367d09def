// The three benchmark workloads. Each rep owns one cluster; the client
// load is generated here, inside the simulation, from the rep's seed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "layer_trace.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/core/health_monitor.h"
#include "src/core/repair_planner.h"
#include "src/core/session.h"

namespace perfbench {

using aurora::kMillisecond;
using aurora::kSecond;
using aurora::Result;
using aurora::Rng;
using aurora::SimDuration;
using aurora::SimTime;
using aurora::Status;
using aurora::TxnId;
using aurora::VolumeId;
using aurora::core::AuroraCluster;
using aurora::core::AuroraOptions;
using aurora::core::ClientSession;
using aurora::engine::DbInstance;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Wall time of the benchmark's own synchronous API calls; only traced
/// reps switch it on, so untraced reps carry no timing calls.
struct CallTimer {
  bool on = false;
  double ns = 0;
  uint64_t calls = 0;

  /// Nested calls (a callback that fires synchronously inside a timed
  /// call) are part of the outer call.
  template <typename F>
  void Time(F&& fn) {
    if (!on || depth > 0) {
      fn();
      return;
    }
    ++depth;
    const auto t0 = Clock::now();
    fn();
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ++calls;
    --depth;
  }
  int depth = 0;
};

std::string RowKey(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "r%05zu", index);
  return buf;
}

/// Values name their writer and a per-writer sequence number, padded to
/// the row size: "v<writer>.<seq>|xxxx...". Sequence 0 is the preload.
std::string MakeValue(uint64_t writer, uint64_t seq, size_t bytes) {
  std::string v = "v" + std::to_string(writer) + "." + std::to_string(seq) +
                  "|";
  if (v.size() < bytes) v.append(bytes - v.size(), 'x');
  return v;
}

/// A value's identity: writer tag in the high bits, sequence below. For
/// one row, later writes by its (single) writer carry larger tags.
uint64_t Tag(uint64_t writer, uint64_t seq) { return (writer << 40) | seq; }

/// Tag of a well-formed value, or nullopt.
std::optional<uint64_t> ParseTag(const std::string& v) {
  const size_t dot = v.find('.');
  const size_t bar = v.find('|');
  if (v.empty() || v[0] != 'v' || dot == std::string::npos ||
      bar == std::string::npos || dot > bar) {
    return std::nullopt;
  }
  return Tag(std::strtoull(v.c_str() + 1, nullptr, 10),
             std::strtoull(v.c_str() + dot + 1, nullptr, 10));
}

/// What a key may read back as: its last acknowledged write, or a later
/// write whose commit failed (its outcome is unknown to the client, so it
/// may or may not have become durable).
struct KeyOracle {
  uint64_t acked = 0;
  std::vector<uint64_t> unknown;

  void Acked(uint64_t tag) {
    if (tag < acked) return;
    acked = tag;
    std::erase_if(unknown, [tag](uint64_t t) { return t <= tag; });
  }
  void Failed(uint64_t tag) {
    if (tag > acked) unknown.push_back(tag);
  }
  bool Allows(uint64_t tag) const {
    return tag == acked ||
           std::find(unknown.begin(), unknown.end(), tag) != unknown.end();
  }
};

/// One writer's keyspace plus its outcome counters.
struct Tenant {
  VolumeId volume = 0;
  size_t value_bytes = 256;
  std::vector<KeyOracle> keys;
  uint64_t next_seq = 1;
  uint64_t issued = 0;
  uint64_t acked = 0;
  uint64_t failed = 0;
  uint64_t outstanding = 0;
  uint64_t window_acked = 0;
  uint64_t acked_bytes = 0;
  /// Writes issued but not resolved: sequence number -> row.
  std::map<uint64_t, size_t> inflight;

  /// A write never acknowledged (its instance was fenced mid-flight) has
  /// an unknown outcome, like a refused one.
  void ResolveInflightAsUnknown() {
    for (const auto& [seq, index] : inflight) keys[index].Failed(Tag(volume, seq));
    inflight.clear();
  }
};

/// State shared by every workload rep: cluster, timers, histograms.
class Rig {
 public:
  /// Load-free background time before the footprint is read (two GC
  /// intervals at the storage-node defaults).
  static constexpr SimDuration kSettle = 1 * kSecond;
  /// Simulated interval between footprint samples during the window.
  static constexpr SimDuration kFootprintEvery = 250 * kMillisecond;

  explicit Rig(const RepConfig& config, RepResult* out)
      : config_(config), out_(out), rng_(config.seed ^ 0x9e3779b97f4a7c15ULL) {
    put_timer_.on = config.traced;
    session_timer_.on = config.traced;
  }

 protected:
  DbInstance* Writer(VolumeId v) { return cluster_->writer(v); }
  SimTime Now() { return cluster_->sim().Now(); }

  void Mismatch(const std::string& check, uint64_t n = 1) {
    out_->mismatches[check] += n;
  }

  /// Preloads `rows` keys of every tenant (sequence 0) with concurrent
  /// autocommit writes, in waves, and waits for every ack.
  bool Preload(std::vector<Tenant*> tenants, size_t rows) {
    constexpr size_t kWave = 256;
    for (size_t base = 0; base < rows; base += kWave) {
      uint64_t pending = 0;
      bool ok = true;
      for (Tenant* t : tenants) {
        t->keys.resize(rows);
        DbInstance* writer = Writer(t->volume);
        for (size_t i = base; i < std::min(rows, base + kWave); ++i) {
          t->keys[i].acked = Tag(t->volume, 0);
          const std::string key = RowKey(i);
          const std::string value = MakeValue(t->volume, 0, t->value_bytes);
          const TxnId txn = writer->Begin();
          ++pending;
          writer->Put(txn, key, value,
                      [&pending, &ok, writer, txn, t, bytes = key.size() +
                                                     value.size()](Status st) {
                        if (!st.ok()) {
                          ok = false;
                          --pending;
                          return;
                        }
                        writer->Commit(txn, [&pending, &ok, t,
                                             bytes](Status cst) {
                          if (cst.ok()) {
                            t->acked_bytes += bytes;
                          } else {
                            ok = false;
                          }
                          --pending;
                        });
                      });
        }
      }
      if (!cluster_->RunUntil([&pending]() { return pending == 0; },
                              30 * kSecond) ||
          !ok) {
        Mismatch("preload_failed");
        return false;
      }
    }
    return true;
  }

  /// One autocommit write of `t`'s key `index`, timed from `due`.
  void WriteKey(Tenant* t, size_t index, SimTime due, bool measured,
                Samples* latency) {
    DbInstance* writer = Writer(t->volume);
    const uint64_t seq = t->next_seq++;
    std::string key = RowKey(index);
    std::string value = MakeValue(t->volume, seq, t->value_bytes);
    const uint64_t bytes = key.size() + value.size();
    ++t->issued;
    ++t->outstanding;
    t->inflight.emplace(seq, index);
    auto finish = [this, t, index, seq, due, measured, latency,
                   bytes](Status st) {
      --t->outstanding;
      t->inflight.erase(seq);
      if (st.ok()) {
        ++t->acked;
        t->acked_bytes += bytes;
        t->keys[index].Acked(Tag(t->volume, seq));
        if (measured) {
          ++t->window_acked;
          latency->push_back(Now() - due);
        }
      } else {
        ++t->failed;
        t->keys[index].Failed(Tag(t->volume, seq));
      }
    };
    if (!writer->IsOpen()) {
      // A fenced or crashed instance refuses new transactions outright.
      finish(writer->IsFenced() ? Status::Fenced("instance fenced")
                                : Status::Unavailable("instance not open"));
      return;
    }
    TxnId txn = 0;
    put_timer_.Time([&]() {
      txn = writer->Begin();
      writer->Put(txn, key, value, [this, writer, txn, finish](Status st) {
        if (!st.ok()) {
          writer->Rollback(txn, [](Status) {});
          finish(st);
          return;
        }
        put_timer_.Time([&]() { writer->Commit(txn, finish); });
      });
    });
  }

  /// Reads every key of `t` back through its writer and compares against
  /// the oracle. A fenced writer is reopened first (crash recovery), which
  /// must preserve every acknowledged commit; a row that reads back older
  /// than its last ack, or fails to read, after that is reported as its own
  /// check.
  void ReadBack(Tenant* t) {
    t->ResolveInflightAsUnknown();
    DbInstance* writer = Writer(t->volume);
    const bool reopened = !writer->IsOpen();
    if (reopened) {
      bool done = false;
      Status status;
      writer->Open([&](Status st) {
        status = st;
        done = true;
      });
      if (!cluster_->RunUntil([&done]() { return done; }, 30 * kSecond) ||
          !status.ok()) {
        Mismatch("readback_reopen_failed");
        return;
      }
    }
    uint64_t pending = 0;
    for (size_t i = 0; i < t->keys.size(); ++i) {
      ++pending;
      writer->Get(aurora::kInvalidTxn, RowKey(i),
                  [this, t, i, reopened, &pending](Result<std::string> r) {
                    --pending;
                    ++out_->counts["checks"];
                    if (!r.ok()) {
                      Mismatch(reopened ? "readback_error_after_reopen"
                                        : "readback_error");
                      return;
                    }
                    const auto tag = ParseTag(*r);
                    if (!tag || !t->keys[i].Allows(*tag)) {
                      Mismatch(reopened ? "readback_lost_after_reopen"
                                        : "readback_not_last_acked");
                    }
                  });
    }
    if (!cluster_->RunUntil([&pending]() { return pending == 0; },
                            30 * kSecond)) {
      Mismatch("readback_timeout", pending);
    }
  }

  /// Runs the simulation in 10 ms slices until `idle` holds or `cap`
  /// elapses (slicing never perturbs the schedule).
  void Drain(const std::function<bool()>& idle, SimDuration cap) {
    const SimTime deadline = Now() + cap;
    while (!idle() && Now() < deadline) cluster_->RunFor(10 * kMillisecond);
  }

  /// Runs the window for `duration` in slices, sampling the footprint
  /// after each.
  void RunSampled(SimDuration duration) {
    const SimTime end = Now() + duration;
    while (Now() < end) {
      cluster_->RunFor(std::min(kFootprintEvery, end - Now()));
      SampleFootprint();
    }
  }

  /// Adds one sample of stored bytes (every segment's hot log and block
  /// versions) per acked user byte. The stored footprint saw-tooths with
  /// version GC, which only advances where page reads carry the minimum
  /// read point, so the window's mean is reported rather than an end
  /// snapshot. The pause also times one host calibration burst. Both are
  /// excluded from the window's wall time. With `read_footprint` false the
  /// pause only times the burst.
  void SampleFootprint(bool read_footprint = true) {
    const auto t0 = Clock::now();
    Calibrate();
    if (read_footprint) {
      double stored = 0;
      for (const auto& node : cluster_->storage_nodes()) {
        for (const auto& [id, seg] : node->segments()) {
          stored += static_cast<double>(seg->HotLogBytes() +
                                        seg->TotalVersionBytes());
        }
      }
      const double user = user_bytes_();
      if (user > 0) {
        out_->counts["footprint_ratio_sum"] += stored / user;
        out_->counts["footprint_samples"] += 1;
      }
    }
    paused_wall_s_ += SecondsBetween(t0, Clock::now());
    if (trace_) trace_->Resume();
  }

  /// Times one calibration burst (see HostCalibrationBurstSeconds).
  void Calibrate() {
    out_->calibration_s += HostCalibrationBurstSeconds();
    ++calibration_bursts_;
  }

  /// Marks the start of the measured window (after setup).
  void BeginWindow(const TracedActors& actors) {
    Calibrate();
    window_start_wall_ = Clock::now();
    out_->setup_wall_s = SecondsBetween(setup_start_wall_, window_start_wall_);
    window_start_sim_ = Now();
    events_at_start_ = cluster_->sim().ExecutedEvents();
    net_at_start_ = cluster_->network().stats();
    window_monitor_ = actors.monitor;
    probes_at_start_ =
        window_monitor_ != nullptr ? window_monitor_->probes_sent() : 0;
    if (config_.traced) {
      trace_ = std::make_unique<LayerTrace>(cluster_.get(), actors);
      trace_->Attach();
    }
  }

  void EndWindow() {
    if (trace_) trace_->Detach();
    out_->window_wall_s =
        SecondsBetween(window_start_wall_, Clock::now()) - paused_wall_s_;
    Calibrate();
    out_->calibration_s /= static_cast<double>(calibration_bursts_);
    auto& c = out_->counts;
    const auto& net = cluster_->network().stats();
    c["window_sim_us"] = static_cast<double>(Now() - window_start_sim_);
    c["window_events"] = static_cast<double>(
        cluster_->sim().ExecutedEvents() - events_at_start_);
    c["window_messages"] =
        static_cast<double>(net.messages_sent - net_at_start_.messages_sent);
    c["window_bytes"] =
        static_cast<double>(net.bytes_sent - net_at_start_.bytes_sent);
    c["window_dropped"] = static_cast<double>(net.messages_dropped -
                                              net_at_start_.messages_dropped);
    if (window_monitor_ != nullptr) {
      c["window_health_probes"] =
          static_cast<double>(window_monitor_->probes_sent() - probes_at_start_);
    }
    if (trace_) {
      auto& w = out_->wall;
      for (int l = 0; l < kLayerCount; ++l) {
        w[std::string("layer_ns.") + LayerName(l)] = trace_->layer_ns(l);
      }
      w["unattributed_ns"] = trace_->unattributed_ns();
      w["trace_events"] = static_cast<double>(trace_->events());
      w["traced_window_ns"] = out_->window_wall_s * 1e9;
    }
  }

  /// Reads every layer's public counters and histograms into the result.
  /// Background work first runs for a while with no client load, so the
  /// stored footprint is read at a settled point, not mid-GC cycle.
  void CollectLayers(const std::vector<Tenant*>& tenants,
                     const std::vector<const ClientSession*>& sessions,
                     const aurora::core::HealthMonitor* monitor,
                     const aurora::core::RepairPlanner* planner) {
    cluster_->RunFor(kSettle);
    auto& c = out_->counts;
    auto& h = out_->hists;
    for (const Tenant* t : tenants) {
      c["ops_issued"] += t->issued;
      c["ops_ok"] += t->acked;
      c["ops_failed"] += t->failed + t->outstanding;
      c["window_ops_ok"] += t->window_acked;
      c["commits_ok"] += t->acked;
      c["user_bytes"] += t->acked_bytes;
    }
    for (size_t v = 0; v < cluster_->VolumeCount(); ++v) {
      DbInstance* w = Writer(static_cast<VolumeId>(v));
      if (w == nullptr) continue;
      c["fenced_writers"] += w->IsFenced() ? 1 : 0;
      c["db_commits"] += w->stats().commits_acked;
      c["db_aborts"] += w->stats().txn_aborts;
      // A fenced instance has dropped its cache (and, below, its driver):
      // their counters leave with them.
      if (w->IsOpen()) {
        c["cache_hits"] += w->cache().stats().hits;
        c["cache_misses"] += w->cache().stats().misses;
      }
      h["commit_wait"].Merge(w->commit_latency());
      if (auto* d = w->driver()) {
        const auto& s = d->stats();
        c["drv_records"] += s.records_sent;
        c["drv_write_requests"] += s.write_requests;
        c["drv_retransmissions"] += s.retransmissions;
        c["drv_advance_passes"] += s.advance_passes;
        c["drv_stale_epoch_acks"] += s.stale_epoch_acks;
        c["drv_reads"] += s.reads_issued;
        c["drv_hedged"] += d->router().hedged_reads();
        h["write_ack"].Merge(d->write_ack_latency());
        h["storage_read"].Merge(d->read_latency());
      }
    }
    for (const auto& rep : cluster_->replicas()) {
      const auto& s = rep->stats();
      c["rep_applied"] += s.records_applied;
      c["rep_discarded"] += s.records_discarded_uncached;
      c["rep_anchor_waits"] += s.anchor_waits;
      c["rep_cache_hits"] += rep->cache().stats().hits;
      c["rep_cache_misses"] += rep->cache().stats().misses;
      h["replica_lag"].Merge(rep->replica_lag());
      if (auto* d = rep->driver()) {
        c["drv_reads"] += d->stats().reads_issued;
        c["drv_hedged"] += d->router().hedged_reads();
        h["storage_read"].Merge(d->read_latency());
      }
    }
    for (const auto& node : cluster_->storage_nodes()) {
      c["disk_ops"] += node->disk().ops_completed();
      h["disk_op"].Merge(node->disk().op_latency());
      for (const auto& [id, seg] : node->segments()) {
        const auto& s = seg->stats();
        c["seg_received"] += s.records_received;
        c["seg_duplicate"] += s.records_duplicate;
        c["seg_coalesced"] += s.records_coalesced;
        c["seg_gossip_filled"] += s.records_gossip_filled;
        c["seg_versions_gced"] += s.versions_gced;
        c["seg_reads_served"] += s.reads_served;
        c["hot_log_bytes"] += seg->HotLogBytes();
        c["version_bytes"] += seg->TotalVersionBytes();
      }
    }
    for (const ClientSession* s : sessions) {
      c["sess_reads"] += s->stats().gets + s->stats().scans;
      c["sess_fallbacks"] += s->stats().writer_fallbacks;
    }
    if (monitor != nullptr) c["health_probes"] += monitor->probes_sent();
    if (planner != nullptr) {
      c["repairs_committed"] += planner->stats().committed;
      c["repairs_reverted"] += planner->stats().reverted;
      h["repair_mttr"].Merge(planner->mttr());
    }
    if (config_.traced) {
      out_->wall["put_call_ns"] = put_timer_.ns;
      out_->wall["put_calls"] = static_cast<double>(put_timer_.calls);
      out_->wall["session_call_ns"] = session_timer_.ns;
      out_->wall["session_calls"] = static_cast<double>(session_timer_.calls);
    }
    out_->fingerprint = cluster_->sim().ScheduleFingerprint();
  }

  /// Poisson arrivals at `rate`/s of writes to `t`, cycling through a
  /// seeded permutation of its keys (an in-flight write never shares a
  /// row, so no write is refused for a lock conflict). Arrivals due before
  /// `measure_from` are warm-up; arrivals stop at `end`.
  void StartOpenLoop(Tenant* t, double rate, SimTime measure_from,
                     SimTime end, Samples* latency) {
    auto loop = std::make_shared<OpenLoopState>();
    loop->tenant = t;
    loop->mean_gap_us = 1e6 / rate;
    loop->rng = rng_.Fork();
    loop->perm.resize(t->keys.size());
    std::iota(loop->perm.begin(), loop->perm.end(), 0);
    for (size_t i = loop->perm.size(); i > 1; --i) {
      std::swap(loop->perm[i - 1], loop->perm[loop->rng.NextBounded(i)]);
    }
    loop->measure_from = measure_from;
    loop->end = end;
    loop->latency = latency;
    loops_.push_back(loop);
    ScheduleArrival(loop.get());
  }

  RepConfig config_;
  RepResult* out_;
  Rng rng_;
  CallTimer put_timer_;
  CallTimer session_timer_;
  Clock::time_point setup_start_wall_ = Clock::now();
  /// Acked key+value bytes so far (preload included); set by each workload.
  std::function<double()> user_bytes_;
  std::unique_ptr<AuroraCluster> cluster_;

 private:
  struct OpenLoopState {
    Tenant* tenant = nullptr;
    double mean_gap_us = 0;
    Rng rng;
    std::vector<uint32_t> perm;
    size_t cursor = 0;
    SimTime measure_from = 0;
    SimTime end = 0;
    Samples* latency = nullptr;
  };

  void ScheduleArrival(OpenLoopState* loop) {
    const auto gap = static_cast<SimDuration>(
        loop->rng.NextExponential(loop->mean_gap_us));
    if (Now() + gap >= loop->end) return;
    cluster_->sim().Schedule(gap, [this, loop]() {
      const size_t index = loop->perm[loop->cursor];
      loop->cursor = (loop->cursor + 1) % loop->perm.size();
      WriteKey(loop->tenant, index, Now(), Now() >= loop->measure_from,
               loop->latency);
      ScheduleArrival(loop);
    });
  }

  Clock::time_point window_start_wall_;
  double paused_wall_s_ = 0;
  int calibration_bursts_ = 0;
  SimTime window_start_sim_ = 0;
  uint64_t events_at_start_ = 0;
  aurora::sim::NetworkStats net_at_start_;
  const aurora::core::HealthMonitor* window_monitor_ = nullptr;
  uint64_t probes_at_start_ = 0;
  std::vector<std::shared_ptr<OpenLoopState>> loops_;

 protected:
  // Declared last so it is destroyed first, while the cluster still lives.
  std::unique_ptr<LayerTrace> trace_;
};

// ---------------------------------------------------------------------------
// write_commit: open-loop autocommit updates, the commit path end to end.
// ---------------------------------------------------------------------------

class WriteCommit : public Rig {
 public:
  static constexpr double kRate = 5000;        // txn/s, simulated
  static constexpr size_t kRows = 4096;
  static constexpr size_t kValueBytes = 256;
  static constexpr SimDuration kWarmup = 200 * kMillisecond;
  static constexpr SimDuration kWindow = 1 * kSecond;

  using Rig::Rig;

  void Run() {
    AuroraOptions options;
    options.seed = config_.seed;
    options.num_pgs = 2;
    options.db.cache_pages = 8192;
    cluster_ = std::make_unique<AuroraCluster>(options);
    if (!cluster_->StartBlocking().ok() || cluster_->AddReplica() == nullptr) {
      Mismatch("cluster_start_failed");
      return;
    }
    tenant_.value_bytes = kValueBytes;
    if (!Preload({&tenant_}, kRows)) return;

    const SimDuration window =
        static_cast<SimDuration>(kWindow * config_.window_scale);
    const SimTime measure_from = Now() + kWarmup;
    StartOpenLoop(&tenant_, kRate, measure_from, measure_from + window,
                  &out_->samples["commit"]);
    cluster_->RunFor(kWarmup);

    user_bytes_ = [this]() { return static_cast<double>(tenant_.acked_bytes); };
    BeginWindow({});
    RunSampled(window);
    Drain([this]() { return tenant_.outstanding == 0; }, 5 * kSecond);
    EndWindow();

    out_->samples["op"] = out_->samples["commit"];
    CollectLayers({&tenant_}, {}, nullptr, nullptr);
    // A healthy fleet refuses no commit: any failure is a wrong outcome.
    if (tenant_.failed + tenant_.outstanding > 0) {
      Mismatch("commit_failed", tenant_.failed + tenant_.outstanding);
    }
    ReadBack(&tenant_);
  }

 private:
  Tenant tenant_;
};

// ---------------------------------------------------------------------------
// session_read: closed-loop sessions over small replica caches.
// ---------------------------------------------------------------------------

class SessionRead : public Rig {
 public:
  static constexpr size_t kSessions = 4;
  static constexpr size_t kRows = 4000;
  static constexpr size_t kValueBytes = 128;
  static constexpr size_t kReplicas = 3;
  static constexpr size_t kReplicaCachePages = 24;
  static constexpr size_t kScanLimit = 16;
  static constexpr SimDuration kWarmup = 100 * kMillisecond;
  static constexpr SimDuration kWindow = 20 * kSecond;

  using Rig::Rig;

  void Run() {
    AuroraOptions options;
    options.seed = config_.seed;
    options.db.cache_pages = 8192;
    options.replica.cache_pages = kReplicaCachePages;
    cluster_ = std::make_unique<AuroraCluster>(options);
    if (!cluster_->StartBlocking().ok()) {
      Mismatch("cluster_start_failed");
      return;
    }
    for (size_t i = 0; i < kReplicas; ++i) {
      if (cluster_->AddReplica() == nullptr) {
        Mismatch("cluster_start_failed");
        return;
      }
    }
    // The primary volume is written by the sessions (writer ids 1..4);
    // the preload is writer 0.
    rows_.value_bytes = kValueBytes;
    if (!Preload({&rows_}, kRows)) return;
    const aurora::Lsn target = Writer(0)->vdl();
    if (!cluster_->RunUntil(
            [&]() {
              for (const auto& rep : cluster_->replicas()) {
                if (rep->vdl() == aurora::kInvalidLsn || rep->vdl() < target) {
                  return false;
                }
              }
              return true;
            },
            10 * kSecond)) {
      Mismatch("replica_catch_up_failed");
      return;
    }

    zipf_ = std::make_unique<aurora::ZipfianGenerator>(kRows, 0.99);
    for (size_t s = 0; s < kSessions; ++s) {
      aurora::core::SessionOptions so;
      so.replica_offset = s;
      auto client = std::make_unique<Client>();
      client->id = s;
      client->session = std::make_unique<ClientSession>(
          cluster_.get(), static_cast<aurora::AzId>(s % 3), so);
      client->rng = rng_.Fork();
      clients_.push_back(std::move(client));
    }
    const SimDuration window =
        static_cast<SimDuration>(kWindow * config_.window_scale);
    measure_from_ = Now() + kWarmup;
    end_ = measure_from_ + window;
    for (auto& c : clients_) Think(c.get());
    cluster_->RunFor(kWarmup);

    std::vector<const ClientSession*> sessions;
    for (auto& c : clients_) sessions.push_back(c->session.get());
    user_bytes_ = [this]() {
      double bytes = static_cast<double>(rows_.acked_bytes);
      for (const auto& c : clients_) bytes += static_cast<double>(c->acked_bytes);
      return bytes;
    };
    BeginWindow({sessions, nullptr, nullptr});
    RunSampled(window);
    Drain(
        [this]() {
          for (auto& c : clients_) {
            if (c->busy) return false;
          }
          return true;
        },
        15 * kSecond);
    EndWindow();

    Tenant sessions_total;
    for (auto& c : clients_) {
      sessions_total.issued += c->issued;
      sessions_total.acked += c->ok;
      sessions_total.failed += c->failed;
      sessions_total.outstanding += c->busy ? 1 : 0;
      sessions_total.window_acked += c->window_ok;
      sessions_total.acked_bytes += c->acked_bytes;
    }
    sessions_total.acked_bytes += rows_.acked_bytes;
    out_->samples["op"] = out_->samples["read"];
    CollectLayers({&sessions_total}, sessions, nullptr, nullptr);
    out_->counts["commits_ok"] = static_cast<double>(puts_ok_);
    out_->counts["reads_ok"] = static_cast<double>(reads_ok_);

    // Every session wrote only its own rows (index % kSessions == id), so
    // the final value of each row is that session's last acked write.
    for (size_t i = 0; i < kRows; ++i) {
      Client* owner = clients_[i % kSessions].get();
      if (auto it = owner->own.find(i); it != owner->own.end()) {
        rows_.keys[i] = it->second;
      }
    }
    ReadBack(&rows_);
  }

 private:
  struct Client {
    size_t id = 0;
    std::unique_ptr<ClientSession> session;
    Rng rng;
    bool busy = false;
    uint64_t next_seq = 1;
    uint64_t issued = 0, ok = 0, failed = 0, window_ok = 0, acked_bytes = 0;
    /// This session's rows (index % kSessions == id) and what each may
    /// read back as.
    std::map<size_t, KeyOracle> own;
  };

  static uint64_t WriterTag(const Client* c) { return 1 + c->id; }

  void Think(Client* c) {
    const SimDuration think = c->rng.NextInRange(50, 150);
    cluster_->sim().Schedule(think, [this, c]() { NextOp(c); });
  }

  /// Checks one row a session read: its own rows must read back exactly
  /// its last acked write (read-your-writes; nobody else writes them),
  /// other rows must hold a well-formed value.
  void CheckRead(Client* c, size_t index, const std::string& value) {
    const auto tag = ParseTag(value);
    if (!tag) {
      Mismatch("session_read_malformed");
      return;
    }
    if (index % kSessions != c->id) return;
    // Rows start as the preload's Tag(0, 0), the default oracle.
    const auto it = c->own.find(index);
    const KeyOracle preload;
    if (!(it == c->own.end() ? preload : it->second).Allows(*tag)) {
      Mismatch("session_read_older_than_own_write");
    }
  }

  void Finish(Client* c, SimTime start, bool measured, bool ok,
              Samples* latency) {
    c->busy = false;
    if (ok) {
      ++c->ok;
      if (measured) {
        ++c->window_ok;
        latency->push_back(Now() - start);
      }
    } else {
      ++c->failed;
    }
    Think(c);
  }

  void NextOp(Client* c) {
    const SimTime start = Now();
    if (start >= end_) return;
    const bool measured = start >= measure_from_;
    c->busy = true;
    ++c->issued;
    const double dice = c->rng.NextDouble();
    const size_t index = zipf_->Next(c->rng);
    if (dice < 0.85) {
      session_timer_.Time([&]() {
        c->session->Get(RowKey(index), [this, c, index, start,
                                        measured](Result<std::string> r) {
          if (r.ok()) {
            CheckRead(c, index, *r);
            ++reads_ok_;
          } else {
            Mismatch("session_get_failed");
          }
          Finish(c, start, measured, r.ok(), &out_->samples["read"]);
        });
      });
    } else if (dice < 0.95) {
      const size_t hi = std::min(kRows - 1, index + 4 * kScanLimit);
      session_timer_.Time([&]() {
        c->session->Scan(
            RowKey(index), RowKey(hi), kScanLimit,
            [this, c, start, measured](
                Result<std::vector<std::pair<std::string, std::string>>> r) {
              if (r.ok()) {
                for (const auto& [key, value] : *r) {
                  CheckRead(c, std::strtoull(key.c_str() + 1, nullptr, 10),
                            value);
                }
                ++reads_ok_;
              } else {
                Mismatch("session_scan_failed");
              }
              Finish(c, start, measured, r.ok(), &out_->samples["read"]);
            });
      });
    } else {
      // Writes stay in the session's own rows: no two sessions ever hold
      // a lock on the same row, and read-your-writes is exact.
      size_t row = index - index % kSessions + c->id;
      if (row >= kRows) row -= kSessions;
      const uint64_t seq = c->next_seq++;
      std::string value = MakeValue(WriterTag(c), seq, kValueBytes);
      const uint64_t bytes = RowKey(row).size() + value.size();
      session_timer_.Time([&]() {
        c->session->Put(RowKey(row), value, [this, c, row, seq, bytes, start,
                                             measured](Status st) {
          if (st.ok()) {
            c->own[row].Acked(Tag(WriterTag(c), seq));
            c->acked_bytes += bytes;
            ++puts_ok_;
          } else {
            c->own[row].Failed(Tag(WriterTag(c), seq));
            Mismatch("session_put_failed");
          }
          Finish(c, start, measured, st.ok(), &out_->samples["commit"]);
        });
      });
    }
  }

  Tenant rows_;
  std::unique_ptr<aurora::ZipfianGenerator> zipf_;
  SimTime measure_from_ = 0;
  SimTime end_ = 0;
  uint64_t reads_ok_ = 0;
  uint64_t puts_ok_ = 0;
  std::vector<std::unique_ptr<Client>> clients_;
};

// ---------------------------------------------------------------------------
// fleet_repair: multi-tenant writes while a storage node is re-replicated.
// ---------------------------------------------------------------------------

class FleetRepair : public Rig {
 public:
  static constexpr size_t kVolumes = 8;
  static constexpr size_t kPgsPerVolume = 8;
  static constexpr size_t kNodesPerAz = 4;
  static constexpr size_t kRows = 512;
  static constexpr size_t kValueBytes = 256;
  static constexpr double kBaseRate = 2000;  // tenant v gets kBaseRate/(v+1)
  static constexpr SimDuration kWarmup = 200 * kMillisecond;
  static constexpr SimDuration kCrashAt = 500 * kMillisecond;
  static constexpr SimDuration kWindow = 4 * kSecond;
  static constexpr SimDuration kRestoreCap = 30 * kSecond;

  using Rig::Rig;

  void Run() {
    AuroraOptions options;
    options.seed = config_.seed;
    options.volumes = kVolumes;
    options.num_pgs = kPgsPerVolume;
    options.storage_nodes_per_az = kNodesPerAz;
    options.db.cache_pages = 8192;
    cluster_ = std::make_unique<AuroraCluster>(options);
    if (!cluster_->StartBlocking().ok()) {
      Mismatch("cluster_start_failed");
      return;
    }
    tenants_.resize(kVolumes);
    std::vector<Tenant*> all;
    for (size_t v = 0; v < kVolumes; ++v) {
      tenants_[v].volume = static_cast<VolumeId>(v);
      tenants_[v].value_bytes = kValueBytes;
      all.push_back(&tenants_[v]);
    }
    if (!Preload(all, kRows)) return;

    monitor_ = std::make_unique<aurora::core::HealthMonitor>(cluster_.get());
    planner_ = std::make_unique<aurora::core::RepairPlanner>(cluster_.get(),
                                                             monitor_.get());
    monitor_->Start();
    planner_->Start();

    const SimDuration window =
        static_cast<SimDuration>(kWindow * config_.window_scale);
    const SimTime measure_from = Now() + kWarmup;
    for (size_t v = 0; v < kVolumes; ++v) {
      StartOpenLoop(&tenants_[v], kBaseRate / static_cast<double>(v + 1),
                    measure_from, measure_from + window,
                    &out_->samples["commit"]);
    }
    cluster_->RunFor(kWarmup);

    user_bytes_ = [this]() {
      double bytes = 0;
      for (const Tenant& t : tenants_) bytes += static_cast<double>(t.acked_bytes);
      return bytes;
    };
    BeginWindow({{}, monitor_.get(), planner_.get()});
    const SimTime crash_at = Now() + kCrashAt;
    cluster_->RunFor(kCrashAt);
    victim_ = cluster_->storage_nodes().front()->id();
    out_->counts["crash_segments"] = static_cast<double>(
        cluster_->storage_nodes().front()->segments().size());
    cluster_->network().Crash(victim_);

    // The window is the load period plus its drain; redundancy is polled
    // every simulated millisecond (slicing does not perturb the schedule),
    // past the window if the repair is still running.
    const SimTime load_end = measure_from + window;
    const SimTime restore_deadline = crash_at + kRestoreCap;
    SimTime restored_at = 0;
    uint64_t committed_seen = planner_->stats().committed;
    auto poll_restore = [&]() {
      cluster_->RunFor(1 * kMillisecond);
      // Redundancy can only come back when a repair commits.
      if (restored_at == 0 && planner_->stats().committed != committed_seen) {
        committed_seen = planner_->stats().committed;
        if (Restored()) restored_at = Now();
      }
    };
    auto drained = [this]() {
      for (const Tenant& t : tenants_) {
        if (t.outstanding > 0 && Writer(t.volume)->IsOpen()) return false;
      }
      return true;
    };
    // Reading 384 segments' footprint costs ~0.1 wall-s, so only every
    // fourth pause reads it; every pause times a calibration burst.
    SimTime next_sample = Now() + kFootprintEvery;
    int pauses = 0;
    while (Now() < load_end) {
      poll_restore();
      if (Now() >= next_sample) {
        SampleFootprint(++pauses % 4 == 0);
        next_sample += kFootprintEvery;
      }
    }
    const SimTime drain_deadline = Now() + 5 * kSecond;
    while (!drained() && Now() < drain_deadline) poll_restore();
    EndWindow();
    while (restored_at == 0 && Now() < restore_deadline) poll_restore();

    if (restored_at == 0) {
      Mismatch("repair_incomplete", UnrestoredPgs());
    } else {
      out_->counts["restore_sim_us"] =
          static_cast<double>(restored_at - crash_at);
      out_->counts["restores"] = 1;
    }
    out_->samples["op"] = out_->samples["commit"];
    CollectLayers(all, {}, monitor_.get(), planner_.get());
    // Stop the control plane before the checks reopen fenced writers.
    planner_->Stop();
    monitor_->Stop();
    for (Tenant* t : all) ReadBack(t);
    if (UnrestoredPgs() > 0) Mismatch("repair_regressed", UnrestoredPgs());
  }

 private:
  /// PGs that still reference the crashed node, have a change pending,
  /// or have a member that is not a live hydrated segment.
  size_t UnrestoredPgs() {
    size_t bad = 0;
    cluster_->ForEachPgConfig([&](VolumeId, const aurora::quorum::PgConfig&
                                                cfg) {
      if (cfg.HasPendingChange()) {
        ++bad;
        return;
      }
      const auto members = cfg.AllMembers();
      if (members.size() != 6) {
        ++bad;
        return;
      }
      for (const auto& m : members) {
        auto* node = cluster_->NodeForSegment(m.id);
        auto* store = node != nullptr ? node->FindSegment(m.id) : nullptr;
        if (m.node == victim_ || store == nullptr || !store->hydrated() ||
            !cluster_->network().IsUp(m.node)) {
          ++bad;
          return;
        }
      }
    });
    return bad;
  }
  bool Restored() { return UnrestoredPgs() == 0; }

  std::vector<Tenant> tenants_;
  aurora::NodeId victim_ = aurora::kInvalidNode;
  // Control plane after the cluster: destroyed first.
  std::unique_ptr<aurora::core::HealthMonitor> monitor_;
  std::unique_ptr<aurora::core::RepairPlanner> planner_;
};

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "write_commit") return Workload::kWriteCommit;
  if (name == "session_read") return Workload::kSessionRead;
  if (name == "fleet_repair") return Workload::kFleetRepair;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWriteCommit: return "write_commit";
    case Workload::kSessionRead: return "session_read";
    case Workload::kFleetRepair: return "fleet_repair";
  }
  return "?";
}

int SeedSlots(Workload workload) {
  switch (workload) {
    case Workload::kWriteCommit: return 12;
    case Workload::kSessionRead: return 9;
    case Workload::kFleetRepair: return 8;
  }
  return 1;
}

double HostCalibrationBurstSeconds() {
  const auto start = Clock::now();
  uint64_t x = 88172645463325252ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<uint64_t, std::string> rows;
  uint64_t found = 0;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t k = next();
    rows.emplace(k, std::string(40, static_cast<char>('a' + (k & 15))));
  }
  for (int i = 0; i < 4000; ++i) {
    auto it = rows.lower_bound(next());
    if (it != rows.end()) found += it->second.size();
  }
  // Keeps the lookups observable, so they cannot be optimized away.
  if (found == 1) std::fputs("", stderr);
  return SecondsBetween(start, Clock::now());
}

uint64_t SubSeed(uint64_t seed, int index) {
  // splitmix64 over (seed, index): distinct, well-mixed cluster seeds.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(index) +
               0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RepResult RunRep(const RepConfig& config) {
  aurora::SetLogLevel(aurora::LogLevel::kError);
  RepResult result;
  switch (config.workload) {
    case Workload::kWriteCommit: {
      WriteCommit w(config, &result);
      w.Run();
      break;
    }
    case Workload::kSessionRead: {
      SessionRead w(config, &result);
      w.Run();
      break;
    }
    case Workload::kFleetRepair: {
      FleetRepair w(config, &result);
      w.Run();
      break;
    }
  }
  return result;
}

}  // namespace perfbench
