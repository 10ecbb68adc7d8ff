// Warm-up auto-tuning driver (paper §VI): runs the MAB meta-solver for a
// budget of training iterations against a throughput objective. Crucially,
// every evaluated iteration is a *real* training iteration — gradient work
// done while probing a configuration still advances the model, so "no
// computation cycle is wasted".
#pragma once

#include <functional>
#include <optional>

#include "autotune/meta_solver.h"
#include "autotune/tuning_cache.h"

namespace aiacc::autotune {

struct TuneRecord {
  int step = 0;
  std::string searcher;
  core::CommConfig config;
  double score = 0.0;
  bool new_best = false;
};

struct AutotuneResult {
  core::CommConfig best_config;
  double best_score = 0.0;
  std::vector<TuneRecord> history;
  std::vector<int> searcher_usage;
  std::vector<std::string> searcher_names;
  bool seeded_from_cache = false;
};

/// Objective: evaluate one warm-up training iteration under `config` and
/// return its throughput (samples/sec; higher is better).
using Objective = std::function<double(const core::CommConfig&)>;

struct AutotuneOptions {
  core::CommConfigSpace space;
  MetaSolverParams solver;
  /// Optional cache consulted (and updated) for similar deployments; the
  /// cached configuration is evaluated first as a seed.
  TuningCache* cache = nullptr;
  const dnn::ModelDescriptor* model = nullptr;   // required when cache set
  std::optional<net::Topology> topology;          // required when cache set
};

AutotuneResult Tune(const Objective& objective, AutotuneOptions options);

}  // namespace aiacc::autotune
