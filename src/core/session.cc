#include "src/core/session.h"

#include <memory>
#include <utility>

#include "src/core/cluster.h"
#include "src/sim/rpc.h"

namespace aurora::core {

namespace {

constexpr uint64_t kRequestBytes = 64;
/// Writer-fallback poll period: a fallback read polls the writer's VDL
/// until it reaches the anchor (each poll is one hop to the writer).
constexpr SimDuration kWriterPoll = 1 * kMillisecond;
/// Operation deadline (replica wait + writer fallback + lost messages).
constexpr SimDuration kOpTimeout = 10 * kSecond;

/// One-shot arbitration between the normal completion path and the
/// watchdog (messages lost to crashes or partitions never complete).
struct OpGuard {
  bool done = false;
  sim::EventId watchdog = sim::kInvalidEvent;
};

/// Wraps `cb` so it answers exactly once: the first of completion and the
/// kOpTimeout watchdog wins. Completion cancels the watchdog, so a
/// finished op's closures leave the event slab at once instead of
/// waiting out the timeout.
template <typename R>
auto GuardedOp(sim::Simulator* sim, const char* timeout_message,
               std::function<void(R)> cb) {
  auto guard = std::make_shared<OpGuard>();
  auto done = [guard, sim, cb = std::move(cb)](R r) {
    if (guard->done) return;
    guard->done = true;
    sim->Cancel(guard->watchdog);  // a no-op when the watchdog is firing
    cb(std::move(r));
  };
  guard->watchdog = sim->Schedule(kOpTimeout, [done, timeout_message]() {
    done(Status::TimedOut(timeout_message));
  });
  return done;
}

/// Every reply to a session is one fixed-size envelope.
constexpr auto kReplyBytes = [](const auto&) { return kRequestBytes; };

/// Adapts a call's move-only reply to the copyable callbacks the writer
/// and replica APIs take.
template <typename R>
std::function<void(R)> Copyable(sim::ReplyFn<R> reply) {
  auto shared = std::make_shared<sim::ReplyFn<R>>(std::move(reply));
  return [shared](R r) { (*shared)(std::move(r)); };
}

/// The writer's answer to a session Put: the commit status and, on
/// success, the commit SCN that becomes the session anchor.
struct PutAck {
  Status status;
  Lsn scn = kInvalidLsn;
};

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
  auto done = GuardedOp<Status>(&cluster_->sim(), "session put timed out",
                                std::move(cb));
  engine::DbInstance* writer = cluster_->writer();
  if (writer == nullptr) {
    done(Status::Unavailable("no writer"));
    return;
  }
  sim::UnaryCall<PutAck>(
      &cluster_->network(), node_, writer->id(),
      kRequestBytes + key.size() + value.size(),
      [writer, key, value](sim::ReplyFn<PutAck> reply) {
        const TxnId txn = writer->Begin();
        writer->Put(
            txn, key, value,
            [writer, txn, ack = Copyable(std::move(reply))](Status st) {
              if (!st.ok()) {
                ack(PutAck{std::move(st)});
                return;
              }
              writer->Commit(txn, [writer, txn, ack](Status commit_st) {
                Lsn scn = kInvalidLsn;
                if (commit_st.ok()) {
                  if (auto s = writer->txns().CommitScnOf(txn)) scn = *s;
                }
                ack(PutAck{std::move(commit_st), scn});
              });
            });
      },
      kReplyBytes,
      [this, done](PutAck ack) {
        // The ack carries the commit SCN: the session anchor only ever
        // advances (read-your-writes).
        if (ack.status.ok() && ack.scn != kInvalidLsn &&
            (anchor_ == kInvalidLsn || ack.scn > anchor_)) {
          anchor_ = ack.scn;
        }
        done(std::move(ack.status));
      });
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

void ClientSession::RunAtWriterAnchor(
    Lsn anchor, SimTime deadline,
    std::function<void(engine::DbInstance*)> op) {
  // VDL >= anchor is required even here: the writer acks a commit at
  // VCL >= SCN, but statement views anchor at VDL, which can trail SCN
  // for a beat.
  engine::DbInstance* writer = cluster_->writer();
  if (writer != nullptr && writer->IsOpen() &&
      (anchor == kInvalidLsn || writer->vdl() >= anchor)) {
    op(writer);
    return;
  }
  // The op's guard timer fires at this same deadline and was scheduled
  // first, so it has already answered the client: the poll just stops.
  if (cluster_->sim().Now() >= deadline) return;
  cluster_->sim().Schedule(
      kWriterPoll, [this, anchor, deadline, op = std::move(op)]() mutable {
        RunAtWriterAnchor(anchor, deadline, std::move(op));
      });
}

template <typename T, typename AtReplica, typename AtWriter>
void ClientSession::Read(uint64_t request_bytes, bool accept_not_found,
                         const char* timeout_message, AtReplica at_replica,
                         AtWriter at_writer,
                         std::function<void(Result<T>)> cb) {
  const SimTime deadline = cluster_->sim().Now() + kOpTimeout;
  const Lsn anchor = anchor_;
  auto done =
      GuardedOp<Result<T>>(&cluster_->sim(), timeout_message, std::move(cb));
  // The writer can always serve the anchor: one hop, then a poll of its
  // VDL until it reaches the anchor (or the deadline).
  auto from_writer = [this, request_bytes, anchor, deadline, at_writer,
                      done]() {
    stats_.writer_fallbacks++;
    engine::DbInstance* writer = cluster_->writer();
    if (writer == nullptr) {
      done(Status::Unavailable("no writer"));
      return;
    }
    sim::UnaryCall<Result<T>>(
        &cluster_->network(), node_, writer->id(), request_bytes,
        [this, anchor, deadline, at_writer](sim::ReplyFn<Result<T>> reply) {
          RunAtWriterAnchor(
              anchor, deadline,
              [at_writer, reply = Copyable(std::move(reply))](
                  engine::DbInstance* at) mutable {
                at_writer(at, std::move(reply));
              });
        },
        kReplyBytes, done);
  };
  replica::ReadReplica* rep = PickReplica();
  if (rep == nullptr) {
    from_writer();
    return;
  }
  sim::UnaryCall<Result<T>>(
      &cluster_->network(), node_, rep->id(), request_bytes,
      [rep, anchor, at_replica](sim::ReplyFn<Result<T>> reply) {
        at_replica(rep, anchor, Copyable(std::move(reply)));
      },
      kReplyBytes,
      [this, accept_not_found, done, from_writer](Result<T> r) {
        if (r.ok() || (accept_not_found && r.status().IsNotFound())) {
          stats_.replica_reads++;
          done(std::move(r));
          return;
        }
        // Replica could not serve the anchor (lag, crash, invalidation
        // storm): the writer always can.
        from_writer();
      });
}

void ClientSession::Get(const std::string& key,
                        std::function<void(Result<std::string>)> cb) {
  stats_.gets++;
  Read(
      kRequestBytes + key.size(), /*accept_not_found=*/true,
      "session get timed out",
      [key](replica::ReadReplica* rep, Lsn anchor,
            std::function<void(Result<std::string>)> reply) {
        rep->GetAtAnchor(key, anchor, std::move(reply));
      },
      [key](engine::DbInstance* writer,
            std::function<void(Result<std::string>)> reply) {
        writer->Get(kInvalidTxn, key, std::move(reply));
      },
      std::move(cb));
}

void ClientSession::Scan(const std::string& lo, const std::string& hi,
                         size_t limit, std::function<void(Result<Rows>)> cb) {
  stats_.scans++;
  Read(
      kRequestBytes + lo.size() + hi.size(), /*accept_not_found=*/false,
      "session scan timed out",
      [lo, hi, limit](replica::ReadReplica* rep, Lsn anchor,
                      std::function<void(Result<Rows>)> reply) {
        rep->ScanAtAnchor(lo, hi, limit, anchor, std::move(reply));
      },
      [lo, hi, limit](engine::DbInstance* writer,
                      std::function<void(Result<Rows>)> reply) {
        writer->Scan(kInvalidTxn, lo, hi, limit, std::move(reply));
      },
      std::move(cb));
}

}  // namespace aurora::core
