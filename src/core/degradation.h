// Engine-level degradation policy (tier 2 of the fault story): under
// sustained fault pressure the engine shrinks its own aggressiveness —
// effective pipeline depth and concurrent communication streams — before
// escalating to tier 3 (abort + checkpoint recovery). The controller is a
// tiny hysteresis ladder over atomics:
//
//   * every failed collective attempt bumps the level (capped);
//   * `recover_after` consecutive successes walk one level back down;
//   * EffectiveDepth/EffectiveStreams halve per level (floor 1).
//
// Stream count is a *local* decision (streams process disjoint tag-isolated
// units, so ranks may disagree freely). Pipeline depth is NOT: every rank
// must run a given unit's ring at the same depth, so the engine never feeds
// controller levels straight into a collective — the per-rank level is only
// a *proposal*, agreed via the sync-round piggyback (threaded_engine.cpp)
// before it is stamped into units.
#pragma once

#include <algorithm>
#include <atomic>

#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace aiacc::core {

class DegradationController {
 public:
  struct Options {
    int max_level = 3;       // depth/streams shrink at most 2^3 = 8x
    int recover_after = 16;  // consecutive successes per level restored
  };

  DegradationController() : DegradationController(Options()) {}
  explicit DegradationController(Options options) : options_(options) {}

  /// Gauges to mirror the state into (may be null): current level and
  /// lifetime level-up count.
  void BindTelemetry(telemetry::Gauge* level_gauge,
                     telemetry::Counter* degrades,
                     telemetry::Counter* restores) noexcept {
    level_gauge_ = level_gauge;
    degrades_ = degrades;
    restores_ = restores;
  }

  void RecordFailure() noexcept {
    streak_.store(0, std::memory_order_relaxed);
    int cur = level_.load(std::memory_order_relaxed);
    while (cur < options_.max_level &&
           !level_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_relaxed)) {
    }
    if (cur < options_.max_level) {
      if (degrades_ != nullptr) degrades_->Add();
      if (level_gauge_ != nullptr) {
        level_gauge_->Set(static_cast<double>(cur + 1));
      }
      telemetry::FlightRecorder::Global().Record(
          telemetry::FlightSeverity::kWarn, "engine.degradation", "degrade",
          /*rank=*/-1, /*channel=*/-1, /*tag=*/-1, /*detail0=*/cur + 1);
    }
  }

  void RecordSuccess() noexcept {
    if (level_.load(std::memory_order_relaxed) == 0) return;
    const int s = streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (s < options_.recover_after) return;
    streak_.store(0, std::memory_order_relaxed);
    int cur = level_.load(std::memory_order_relaxed);
    while (cur > 0 && !level_.compare_exchange_weak(
                          cur, cur - 1, std::memory_order_relaxed)) {
    }
    if (cur > 0) {
      if (restores_ != nullptr) restores_->Add();
      if (level_gauge_ != nullptr) {
        level_gauge_->Set(static_cast<double>(cur - 1));
      }
      telemetry::FlightRecorder::Global().Record(
          telemetry::FlightSeverity::kInfo, "engine.degradation", "restore",
          /*rank=*/-1, /*channel=*/-1, /*tag=*/-1, /*detail0=*/cur - 1);
    }
  }

  [[nodiscard]] int level() const noexcept {
    return level_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int EffectiveDepth(int configured) const noexcept {
    return DepthAt(configured, level());
  }
  [[nodiscard]] int EffectiveStreams(int configured) const noexcept {
    return std::max(1, configured >> level());
  }
  /// Depth for an *agreed* level (the cross-rank value, not this rank's).
  [[nodiscard]] static int DepthAt(int configured, int level) noexcept {
    return std::max(1, configured >> level);
  }

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  const Options options_;
  std::atomic<int> level_{0};
  std::atomic<int> streak_{0};
  telemetry::Gauge* level_gauge_ = nullptr;
  telemetry::Counter* degrades_ = nullptr;
  telemetry::Counter* restores_ = nullptr;
};

}  // namespace aiacc::core
