// Communication hyperparameters of AIACC-Training. The auto-tuner (§VI)
// searches the number of concurrent communication streams, the gradient
// communication granularity (all-reduce unit size), and the all-reduce
// algorithm (CommConfigSpace). The remaining fields are set by the caller:
// the threaded engine honours them, the simulated engine does not model
// them, so the tuner's objective could not tell their values apart.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "collective/simulated.h"
#include "compress/codec.h"

namespace aiacc::core {

struct CommConfig {
  /// Concurrent communication streams (CUDA streams in the paper). The
  /// tuner explores 1..32; deployments settle between 2 and 24 (§VIII-D).
  int num_streams = 8;
  /// Target all-reduce unit size in bytes: ready gradients are packed (small
  /// tensors merged, large tensors split) to this granularity.
  std::size_t granularity_bytes = 8u << 20;
  /// Ring vs hierarchical ("tree") all-reduce.
  collective::Algorithm algorithm = collective::Algorithm::kRing;
  /// Minimum locally-buffered bytes before a synchronization round is
  /// triggered (the "minimum communication granularity" of §V-A).
  std::size_t min_bucket_bytes = 1u << 20;
  /// Ring-slice pipeline depth (collective::Comm::pipeline_depth): how many
  /// slices of each ring step stay concurrently in flight per channel, so
  /// the receive-side reduce overlaps the next slice's transport wait.
  /// Bit-identical at every depth; the default pipelines the engine's unit
  /// rings without changing any numerics.
  int pipeline_depth = 4;
  /// Wire codec for every gradient collective (compress/codec.h). kNone
  /// keeps the raw-fp32 wire.
  compress::CodecSpec codec{};
  /// Priority dispatch (core/scheduler.h): the fraction of the gradient-id
  /// space counted as urgent — the front layers the next forward consumes
  /// first. 0 disables the ready-set scheduler (pure FIFO dispatch): the
  /// scheduler-off arm of the bench A/B. Dispatch order
  /// never changes numerics, so every value is bit-identical.
  float priority_urgent_fraction = 0.25f;
  /// Starvation/latency aging window for the ready set: entries older than
  /// this outrank everything younger on the priority streams.
  int priority_aging_ms = 50;

  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const CommConfig&, const CommConfig&) = default;
};

/// The auto-tuner's discrete search space: the paper's three §VI axes. An
/// axis belongs here only if the tuner's objective, one simulated
/// AiaccEngine iteration, reads it; any other would add only tied points.
struct CommConfigSpace {
  std::vector<int> stream_options = {1, 2, 4, 8, 12, 16, 24, 32};
  std::vector<std::size_t> granularity_options = {
      1u << 20, 2u << 20, 4u << 20, 8u << 20, 16u << 20, 32u << 20, 64u << 20};
  std::vector<collective::Algorithm> algorithm_options = {
      collective::Algorithm::kRing, collective::Algorithm::kHierarchical};

  [[nodiscard]] std::size_t NumPoints() const noexcept {
    return stream_options.size() * granularity_options.size() *
           algorithm_options.size();
  }
  /// Enumerate every configuration (grid order).
  [[nodiscard]] std::vector<CommConfig> AllConfigs() const;
  /// Map a flat index to a configuration (for samplers).
  [[nodiscard]] CommConfig ConfigAt(std::size_t index) const;
};

}  // namespace aiacc::core
