#include "src/engine/read_router.h"

#include <algorithm>

namespace aurora::engine {

namespace {
/// EWMA smoothing factor for response-time tracking.
constexpr double kEwmaAlpha = 0.2;
/// Expected latency assumed for segments never measured.
constexpr SimDuration kDefaultLatency = 1 * kMillisecond;
}  // namespace

void ReadRouter::ObserveLatency(SegmentId segment, SimDuration latency) {
  auto it = ewma_.find(segment);
  if (it == ewma_.end()) {
    ewma_[segment] = static_cast<double>(latency);
    return;
  }
  it->second = kEwmaAlpha * static_cast<double>(latency) +
               (1.0 - kEwmaAlpha) * it->second;
}

void ReadRouter::Penalize(SegmentId segment) {
  auto it = ewma_.find(segment);
  const double base = it == ewma_.end()
                          ? static_cast<double>(kDefaultLatency)
                          : it->second;
  ewma_[segment] = base * 4.0;
}

SimDuration ReadRouter::ExpectedLatency(SegmentId segment) const {
  auto it = ewma_.find(segment);
  if (it == ewma_.end()) return kDefaultLatency;
  return static_cast<SimDuration>(it->second);
}

std::vector<SegmentId> ReadRouter::Rank(std::vector<SegmentId> eligible,
                                        Rng& rng) const {
  std::sort(eligible.begin(), eligible.end(),
            [this](SegmentId a, SegmentId b) {
              const SimDuration la = ExpectedLatency(a);
              const SimDuration lb = ExpectedLatency(b);
              if (la != lb) return la < lb;
              return a < b;
            });
  if (eligible.size() > 1 && rng.Bernoulli(options_.explore_probability)) {
    std::swap(eligible[0], eligible[1]);
  }
  return eligible;
}

SimDuration ReadRouter::HedgeDelay(SegmentId segment) const {
  const auto expected = static_cast<double>(ExpectedLatency(segment));
  return std::clamp(
      static_cast<SimDuration>(expected * options_.hedge_multiplier),
      options_.min_hedge_delay, options_.max_hedge_delay);
}

}  // namespace aurora::engine
