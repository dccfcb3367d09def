// Volume-wide metrics registry: named counters, gauges, and latency
// histograms shared by every layer of the stack.
//
// The paper's consistency points advance by purely local bookkeeping
// (§2.3); this registry makes that bookkeeping *observable* — fan-out and
// retransmission counts in the driver, VCL/VDL advance cadence, hedge
// fire rates, gossip fills, replica lag — without perturbing the hot path.
//
// Design constraints:
//  * Zero cost when disabled. Recording macros compile to a single
//    predictable branch on a process-global flag (and to nothing at all
//    under -DAURORA_METRICS_DISABLED). The default is DISABLED, so the
//    deterministic benchmarks and the golden-fingerprint test see the
//    exact same execution whether or not a test elsewhere used metrics.
//  * Handle-based hot paths. Components resolve names to stable pointers
//    once (construction or first use); recording is a pointer deref plus
//    an increment — never a string lookup.
//  * Machine readable. ToJson() renders the whole registry; benches merge
//    selected series into their BENCH_<name>.json via the snapshot
//    accessors (see bench/bench_common.h).
//
// The registry is a process-global singleton; names are namespaced
// ("driver.", "storage.", ...) so all actors of a cluster aggregate
// naturally. Tests that assert on absolute values call Reset() in their
// setup. Recording is thread-safe — counters/gauges are relaxed atomics
// and histogram cells likewise — so concurrent recorders share handles
// without further synchronization; registration and snapshot reads take
// the registry mutex (cold paths only).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"

namespace aurora::metrics {

/// Monotonic event count (resets only via Registry::Reset).
struct Counter {
  std::atomic<uint64_t> value{0};
  void Add(uint64_t delta = 1) {
    value.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value.load(std::memory_order_relaxed); }
};

/// Point-in-time level (queue depth, lag); last write wins.
struct Gauge {
  std::atomic<int64_t> value{0};
  void Set(int64_t v) { value.store(v, std::memory_order_relaxed); }
  void Max(int64_t v) {
    int64_t cur = value.load(std::memory_order_relaxed);
    while (v > cur &&
           !value.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value.load(std::memory_order_relaxed); }
};

class Registry {
 public:
  static Registry& Global();

  /// Process-global recording switch. Registration and lookups work either
  /// way; only the AURORA_* recording macros consult this. A relaxed
  /// atomic: the enabled-check stays a single predictable load+branch.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Resolve (registering on first use) a metric handle. Handles are
  /// stable for the life of the process — components cache them.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Read-side lookups for tests and dumps; absent names read as zero.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  /// nullptr if never registered.
  const Histogram* FindHistogram(const std::string& name) const;

  /// Zeroes every value. Registrations — and therefore cached handles —
  /// survive, so a Reset between test cases never invalidates a pointer.
  void Reset();

  /// Snapshot accessors (sorted by name) for machine-readable export.
  std::vector<std::pair<std::string, uint64_t>> Counters() const;
  std::vector<std::pair<std::string, int64_t>> Gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const;

  /// Full registry as a JSON object: counters and gauges as numbers,
  /// histograms as {count, mean_us, p50_us, p99_us, max_us}.
  std::string ToJson() const;

 private:
  static inline std::atomic<bool> enabled_{false};

  // unique_ptr storage keeps handle addresses stable across rehashing;
  // mu_ guards the maps (registration/snapshots), never the hot
  // handle-deref path.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace aurora::metrics

// -- Recording macros --------------------------------------------------------
//
// `handle` is a Counter*/Gauge*/Histogram* (may be null — a lazily created
// per-entity series that never materialized records nowhere).

#if defined(AURORA_METRICS_DISABLED)
#define AURORA_METRICS_ON() false
#else
#define AURORA_METRICS_ON() (::aurora::metrics::Registry::enabled())
#endif

#define AURORA_COUNT(handle, delta)                            \
  do {                                                         \
    if (AURORA_METRICS_ON() && (handle) != nullptr) {          \
      (handle)->Add(static_cast<uint64_t>(delta));             \
    }                                                          \
  } while (0)

#define AURORA_GAUGE_SET(handle, v)                            \
  do {                                                         \
    if (AURORA_METRICS_ON() && (handle) != nullptr) {          \
      (handle)->Set(static_cast<int64_t>(v));                  \
    }                                                          \
  } while (0)

#define AURORA_OBSERVE(handle, value_us)                       \
  do {                                                         \
    if (AURORA_METRICS_ON() && (handle) != nullptr) {          \
      (handle)->Record(value_us);                              \
    }                                                          \
  } while (0)
