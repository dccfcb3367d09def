#include "src/core/session.h"

#include <memory>
#include <utility>

#include "src/core/cluster.h"

namespace aurora::core {

namespace {

/// One-shot arbitration between the normal completion path and the
/// watchdog (messages lost to crashes or partitions never complete).
struct OpGuard {
  bool done = false;
};

constexpr uint64_t kRequestBytes = 64;
/// Writer-fallback poll period: a fallback read polls the writer's VDL
/// until it reaches the anchor (each poll is one hop to the writer).
constexpr SimDuration kWriterPoll = 1 * kMillisecond;
/// Operation deadline (replica wait + writer fallback + lost messages).
constexpr SimDuration kOpTimeout = 10 * kSecond;

}  // namespace

ClientSession::ClientSession(AuroraCluster* cluster, AzId az,
                             SessionOptions options)
    : cluster_(cluster),
      node_(cluster->RegisterClientNode(az)),
      az_(az),
      rr_cursor_(options.replica_offset) {}

replica::ReadReplica* ClientSession::PickReplica() {
  const auto& fleet = cluster_->replicas();
  if (fleet.empty()) return nullptr;
  for (size_t i = 0; i < fleet.size(); ++i) {
    replica::ReadReplica* rep =
        fleet[(rr_cursor_ + i) % fleet.size()].get();
    if (cluster_->network().IsUp(rep->id()) && rep->vdl() != kInvalidLsn) {
      rr_cursor_ = (rr_cursor_ + i + 1) % fleet.size();
      return rep;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

void ClientSession::Put(const std::string& key, const std::string& value,
                        std::function<void(Status)> cb) {
  stats_.puts++;
  auto guard = std::make_shared<OpGuard>();
  auto done = [guard, cb = std::move(cb)](Status st) {
    if (guard->done) return;
    guard->done = true;
    cb(std::move(st));
  };
  cluster_->sim().Schedule(kOpTimeout, [done]() {
    done(Status::TimedOut("session put timed out"));
  });
  engine::DbInstance* writer = cluster_->writer();
  if (writer == nullptr) {
    done(Status::Unavailable("no writer"));
    return;
  }
  sim::Network& net = cluster_->network();
  net.Send(
      node_, writer->id(), kRequestBytes + key.size() + value.size(),
      [this, writer, key, value, done]() {
        const TxnId txn = writer->Begin();
        writer->Put(txn, key, value, [this, writer, txn,
                                      done](Status st) mutable {
          if (!st.ok()) {
            cluster_->network().Send(writer->id(), node_, kRequestBytes,
                                     [done, st]() { done(st); });
            return;
          }
          writer->Commit(txn, [this, writer, txn,
                               done](Status commit_st) mutable {
            Lsn scn = kInvalidLsn;
            if (commit_st.ok()) {
              if (auto s = writer->txns().CommitScnOf(txn)) scn = *s;
            }
            cluster_->network().Send(
                writer->id(), node_, kRequestBytes,
                [this, scn, commit_st, done]() {
                  // The ack carries the commit SCN: the session anchor
                  // only ever advances (read-your-writes).
                  if (commit_st.ok() && scn != kInvalidLsn &&
                      (anchor_ == kInvalidLsn || scn > anchor_)) {
                    anchor_ = scn;
                  }
                  done(commit_st);
                });
          });
        });
      });
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

void ClientSession::RunAtWriterAnchor(
    Lsn anchor, SimTime deadline, std::function<void(engine::DbInstance*)> op,
    std::function<void()> fail) {
  // Callers reach the writer via one network hop.
  // VDL >= anchor is required even here: the writer acks a commit at
  // VCL >= SCN, but statement views anchor at VDL, which can trail SCN
  // for a beat.
  engine::DbInstance* writer = cluster_->writer();
  if (writer != nullptr && writer->IsOpen() &&
      (anchor == kInvalidLsn || writer->vdl() >= anchor)) {
    op(writer);
    return;
  }
  if (cluster_->sim().Now() >= deadline) {
    fail();
    return;
  }
  cluster_->sim().Schedule(
      kWriterPoll,
      [this, anchor, deadline, op = std::move(op), fail = std::move(fail)]() {
        RunAtWriterAnchor(anchor, deadline, std::move(op), std::move(fail));
      });
}

void ClientSession::GetFromWriter(
    const std::string& key, Lsn anchor, SimTime deadline,
    std::function<void(Result<std::string>)> cb) {
  engine::DbInstance* writer = cluster_->writer();
  if (writer == nullptr) {
    cb(Status::Unavailable("no writer"));
    return;
  }
  sim::Network& net = cluster_->network();
  net.Send(node_, writer->id(), kRequestBytes + key.size(),
           [this, key, anchor, deadline, cb = std::move(cb)]() mutable {
             RunAtWriterAnchor(
                 anchor, deadline,
                 [this, key, cb](engine::DbInstance* writer) {
                   writer->Get(
                       kInvalidTxn, key,
                       [this, writer, cb](Result<std::string> r) {
                         cluster_->network().Send(
                             writer->id(), node_, kRequestBytes,
                             [cb, r = std::move(r)]() { cb(r); });
                       });
                 },
                 [cb]() {
                   cb(Status::TimedOut("writer did not reach the anchor"));
                 });
           });
}

void ClientSession::Get(const std::string& key,
                        std::function<void(Result<std::string>)> cb) {
  stats_.gets++;
  const SimTime deadline = cluster_->sim().Now() + kOpTimeout;
  const Lsn anchor = anchor_;
  auto guard = std::make_shared<OpGuard>();
  auto done = [guard, cb = std::move(cb)](Result<std::string> r) {
    if (guard->done) return;
    guard->done = true;
    cb(std::move(r));
  };
  cluster_->sim().Schedule(kOpTimeout, [done]() {
    done(Status::TimedOut("session get timed out"));
  });
  replica::ReadReplica* rep = PickReplica();
  if (rep == nullptr) {
    stats_.writer_fallbacks++;
    GetFromWriter(key, anchor, deadline, done);
    return;
  }
  sim::Network& net = cluster_->network();
  net.Send(
      node_, rep->id(), kRequestBytes + key.size(),
      [this, rep, key, anchor, deadline, done]() {
        rep->GetAtAnchor(
            key, anchor,
            [this, rep, key, anchor, deadline,
             done](Result<std::string> r) mutable {
              cluster_->network().Send(
                  rep->id(), node_, kRequestBytes,
                  [this, key, anchor, deadline, done,
                   r = std::move(r)]() mutable {
                    if (r.ok() || r.status().IsNotFound()) {
                      stats_.replica_reads++;
                      done(std::move(r));
                      return;
                    }
                    // Replica could not serve the anchor (lag, crash,
                    // invalidation storm): the writer always can.
                    stats_.writer_fallbacks++;
                    GetFromWriter(key, anchor, deadline, done);
                  });
            });
      });
}

void ClientSession::ScanFromWriter(
    const std::string& lo, const std::string& hi, size_t limit, Lsn anchor,
    SimTime deadline,
    std::function<
        void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  engine::DbInstance* writer = cluster_->writer();
  if (writer == nullptr) {
    cb(Status::Unavailable("no writer"));
    return;
  }
  sim::Network& net = cluster_->network();
  net.Send(
      node_, writer->id(), kRequestBytes + lo.size() + hi.size(),
      [this, lo, hi, limit, anchor, deadline, cb = std::move(cb)]() mutable {
        RunAtWriterAnchor(
            anchor, deadline,
            [this, lo, hi, limit, cb](engine::DbInstance* writer) {
              writer->Scan(
                  kInvalidTxn, lo, hi, limit,
                  [this, writer,
                   cb](Result<
                       std::vector<std::pair<std::string, std::string>>>
                           r) {
                    cluster_->network().Send(
                        writer->id(), node_, kRequestBytes,
                        [cb, r = std::move(r)]() { cb(r); });
                  });
            },
            [cb]() {
              cb(Status::TimedOut("writer did not reach the anchor"));
            });
      });
}

void ClientSession::Scan(
    const std::string& lo, const std::string& hi, size_t limit,
    std::function<
        void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  stats_.scans++;
  const SimTime deadline = cluster_->sim().Now() + kOpTimeout;
  const Lsn anchor = anchor_;
  auto guard = std::make_shared<OpGuard>();
  auto done =
      [guard, cb = std::move(cb)](
          Result<std::vector<std::pair<std::string, std::string>>> r) {
        if (guard->done) return;
        guard->done = true;
        cb(std::move(r));
      };
  cluster_->sim().Schedule(kOpTimeout, [done]() {
    done(Status::TimedOut("session scan timed out"));
  });
  replica::ReadReplica* rep = PickReplica();
  if (rep == nullptr) {
    stats_.writer_fallbacks++;
    ScanFromWriter(lo, hi, limit, anchor, deadline, done);
    return;
  }
  sim::Network& net = cluster_->network();
  net.Send(
      node_, rep->id(), kRequestBytes + lo.size() + hi.size(),
      [this, rep, lo, hi, limit, anchor, deadline, done]() {
        rep->ScanAtAnchor(
            lo, hi, limit, anchor,
            [this, rep, lo, hi, limit, anchor, deadline, done](
                Result<std::vector<std::pair<std::string, std::string>>>
                    r) mutable {
              cluster_->network().Send(
                  rep->id(), node_, kRequestBytes,
                  [this, lo, hi, limit, anchor, deadline, done,
                   r = std::move(r)]() mutable {
                    if (r.ok()) {
                      stats_.replica_reads++;
                      done(std::move(r));
                      return;
                    }
                    stats_.writer_fallbacks++;
                    ScanFromWriter(lo, hi, limit, anchor, deadline, done);
                  });
            });
      });
}

}  // namespace aurora::core
