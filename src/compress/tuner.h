// Per-tensor codec selection as a multi-armed bandit.
//
// The grid/PBT/Bayes autotuner in src/autotune searches one global
// CommConfig (streams, granularity, algorithm, depth, default codec). Codec
// choice, however, is the one dimension where the optimum is *per tensor*:
// a 10M-row embedding gradient with a handful of touched rows wants top-k
// sparsification, while a dense conv/MLP gradient wants a cheap fp16 cast.
// Searching the cross product per-tensor x global would blow up the config
// space, so per-tensor codec choice runs as its own UCB1 bandit layered on
// top of whatever global config the outer tuner picked.
//
// Reward per observation = (1 - wire/raw) - error_weight * relative_error:
// bytes saved, minus a penalty for the reconstruction error the codec
// introduced this step. With the default error_weight, top-k on a
// 99%-sparse tensor scores ~0.99 - eps while on a dense tensor its error
// term dominates and fp16 (tiny error, 0.5 savings) wins — exactly the
// split the paper's CTR workloads want. Converged choices are exported as
// `CommConfig::codec_overrides`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/codec.h"

namespace aiacc::compress {

/// UCB1 bandit choosing a codec per registered tensor. Not thread-safe;
/// drive it from the engine's single tuning thread (matching
/// autotune::Searcher usage).
class PerTensorCodecTuner {
 public:
  struct Options {
    /// Arms of the bandit. Defaults to {none, fp16, onebit, topk@1%}.
    std::vector<CodecSpec> candidates;
    /// Weight of relative reconstruction error against bytes saved.
    double error_weight = 2.0;
    /// UCB exploration constant (sqrt-log bonus multiplier).
    double explore = 0.5;
  };

  PerTensorCodecTuner();
  explicit PerTensorCodecTuner(Options options);

  /// Register a tensor by name; returns its dense id. Re-registering an
  /// existing name returns the same id.
  std::size_t RegisterTensor(const std::string& name);

  /// The codec to try this round for tensor `id` (UCB1: any unplayed arm
  /// first, then highest mean + exploration bonus).
  [[nodiscard]] CodecSpec Choose(std::size_t id);

  /// Report the outcome of the last Choose for `id`: wire vs raw footprint
  /// and the relative reconstruction error of this step's encode.
  void Observe(std::size_t id, std::size_t wire_floats,
               std::size_t raw_floats, double relative_error);

  /// Best arm by observed mean reward (ties to the earlier candidate).
  [[nodiscard]] CodecSpec Best(std::size_t id) const;

  /// Name the tensor `id` was registered under.
  [[nodiscard]] const std::string& NameOf(std::size_t id) const;

  [[nodiscard]] std::size_t NumTensors() const { return arms_.size(); }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Total observations recorded for tensor `id` across all arms.
  [[nodiscard]] std::uint64_t Plays(std::size_t id) const;

 private:
  struct Arm {
    std::uint64_t plays = 0;
    double total_reward = 0.0;
  };
  struct TensorState {
    std::string name;
    std::vector<Arm> arms;
    std::size_t last_choice = 0;
    std::uint64_t total_plays = 0;
  };

  Options options_;
  std::vector<TensorState> arms_;
};

}  // namespace aiacc::compress
