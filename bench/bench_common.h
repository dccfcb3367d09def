// Shared helpers for the experiment harness.
//
// Every bench binary reproduces one figure or prose claim from the paper
// (see DESIGN.md's experiment index): it runs the deterministic simulation
// experiment, prints the paper-style table to stdout, and registers
// google-benchmark microbenchmarks for the primitives it exercises.

#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/core/cluster.h"

namespace aurora::bench {

/// Prints a titled, pipe-separated table (markdown-ish, stable to diff).
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& Columns(std::vector<std::string> names) {
    columns_ = std::move(names);
    return *this;
  }

  Table& Row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void Print() const {
    std::printf("\n== %s ==\n", title_.c_str());
    auto print_row = [](const std::vector<std::string>& cells) {
      std::printf("|");
      for (const auto& cell : cells) std::printf(" %-22s |", cell.c_str());
      std::printf("\n");
    };
    print_row(columns_);
    std::vector<std::string> rule;
    for (size_t i = 0; i < columns_.size(); ++i) rule.push_back("---");
    print_row(rule);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Us(SimDuration us) {
  char buf[32];
  if (us >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", us / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(us));
  }
  return buf;
}

inline std::string Num(double v, int precision = 2) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string LatencySummary(const Histogram& h) {
  return "p50=" + Us(h.P50()) + " p99=" + Us(h.P99()) +
         " p999=" + Us(h.P999());
}

/// Machine-readable companion to the printf tables: collects flat
/// key→value metrics and writes them as `BENCH_<name>.json` so the perf
/// trajectory can be tracked across PRs (diffable, parseable, append-only
/// per run). Output goes to $AURORA_BENCH_JSON_DIR if set, else the
/// current directory. Keys keep insertion order.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  BenchJson& Set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    entries_.emplace_back(key, buf);
    return *this;
  }
  BenchJson& Set(const std::string& key, uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
    return *this;
  }
  BenchJson& Set(const std::string& key, int64_t value) {
    entries_.emplace_back(key, std::to_string(value));
    return *this;
  }
  BenchJson& Set(const std::string& key, int value) {
    return Set(key, static_cast<int64_t>(value));
  }
  /// Embeds an already-rendered JSON value (object/array) verbatim.
  BenchJson& SetRaw(const std::string& key, std::string json_value) {
    entries_.emplace_back(key, std::move(json_value));
    return *this;
  }
  BenchJson& SetString(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    quoted.push_back('"');
    entries_.emplace_back(key, std::move(quoted));
    return *this;
  }

  std::string Render() const {
    std::string out = "{\n  \"bench\": \"" + name_ + "\"";
    // Host thread count rides in every emitted file: wall-clock rates
    // depend on the host, and gate baselines are host-specific.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    out += ",\n  \"host_threads\": " + std::to_string(hw);
    for (const auto& [key, value] : entries_) {
      out += ",\n  \"" + key + "\": " + value;
    }
    out += "\n}\n";
    return out;
  }

  std::string FilePath() const {
    const char* dir = std::getenv("AURORA_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && dir[0] != '\0')
                           ? std::string(dir) + "/"
                           : std::string();
    return path + "BENCH_" + name_ + ".json";
  }

  /// Writes the JSON file; prints the destination so runs are traceable.
  bool WriteFile() const {
    const std::string path = FilePath();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot open %s\n", path.c_str());
      return false;
    }
    const std::string body = Render();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("[bench-json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Issues `n` autocommit single-key transactions back-to-back (closed
/// loop), recording commit latency into the writer's histogram.
inline Status RunClosedLoopWrites(core::AuroraCluster& cluster, int n,
                                  const std::string& prefix = "key") {
  for (int i = 0; i < n; ++i) {
    Status st = cluster.PutBlocking(prefix + std::to_string(i), "value");
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// One open-loop write arrival process against one writer instance. On a
/// multi-tenant cluster each volume's writer gets its own loop (see
/// StartOpenLoopWrites); the classic single-writer entry point
/// RunOpenLoopWrites drives exactly one.
struct OpenLoopState {
  core::AuroraCluster* cluster = nullptr;
  engine::DbInstance* writer = nullptr;
  Histogram* latencies = nullptr;
  SimDuration interval = 0;
  SimTime end = 0;
  uint64_t acked = 0;
  std::function<void(int)> issue;

  /// Breaks the shared_ptr self-reference cycle; call once the simulator
  /// has run past `end` and `acked` has been read.
  void Finish() { issue = nullptr; }
};

/// Schedules an open-loop write arrival process (fixed rate, `duration`
/// long) against `writer`, recording per-commit latency into `latencies`.
/// Does NOT advance the simulator: start one loop per tenant, then RunFor
/// once so all tenants contend for the same fleet concurrently. Call
/// Finish() on the returned state after the run.
inline std::shared_ptr<OpenLoopState> StartOpenLoopWrites(
    core::AuroraCluster& cluster, engine::DbInstance* writer,
    double txn_per_sec, SimDuration duration, Histogram* latencies) {
  auto state = std::make_shared<OpenLoopState>();
  state->cluster = &cluster;
  state->writer = writer;
  state->latencies = latencies;
  state->interval = static_cast<SimDuration>(1e6 / txn_per_sec);
  state->end = cluster.sim().Now() + duration;
  state->issue = [state](int i) {
    auto& sim = state->cluster->sim();
    if (sim.Now() >= state->end) return;
    engine::DbInstance* writer = state->writer;
    const TxnId txn = writer->Begin();
    const SimTime start = sim.Now();
    writer->Put(txn, "k" + std::to_string(i % 512), "v",
                [state, writer, txn, start](Status st) {
                  if (!st.ok()) return;
                  writer->Commit(txn, [state, start](Status commit_st) {
                    if (!commit_st.ok()) return;
                    state->acked++;
                    if (state->latencies != nullptr) {
                      state->latencies->Record(
                          state->cluster->sim().Now() - start);
                    }
                  });
                });
    sim.Schedule(state->interval, [state, i]() { state->issue(i + 1); });
  };
  state->issue(0);
  return state;
}

/// Issues writes at a fixed arrival rate (open loop) for `duration`,
/// collecting per-commit latency into `latencies`. Returns commits acked.
inline uint64_t RunOpenLoopWrites(core::AuroraCluster& cluster,
                                  double txn_per_sec, SimDuration duration,
                                  Histogram* latencies) {
  auto state = StartOpenLoopWrites(cluster, cluster.writer(), txn_per_sec,
                                   duration, latencies);
  cluster.RunFor(duration + 2 * kSecond);
  const uint64_t acked = state->acked;
  state->Finish();
  return acked;
}

}  // namespace aurora::bench
