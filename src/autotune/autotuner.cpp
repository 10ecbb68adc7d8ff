#include "autotune/autotuner.h"

#include "common/logging.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace aiacc::autotune {

AutotuneResult Tune(const Objective& objective, AutotuneOptions options) {
  AIACC_TRACE_SPAN("autotune", "tune");
  auto& metrics = telemetry::MetricsRegistry::Global();
  telemetry::Counter& steps = metrics.GetCounter("autotune.steps");
  telemetry::Gauge& best_gauge = metrics.GetGauge("autotune.best_score");
  // Objective scores are throughput-like and unbounded; a wide exponential
  // grid keeps the histogram useful whatever the unit is.
  telemetry::Histogram& reward = metrics.GetHistogram(
      "autotune.reward", telemetry::ExponentialBounds(1e-3, 24));

  AutotuneResult result;
  MetaSolver solver(MakeDefaultEnsemble(options.space), options.solver);
  for (int i = 0; i < solver.NumSearchers(); ++i) {
    result.searcher_names.push_back(solver.SearcherName(i));
  }

  int step_no = 0;

  // Seed from the tuning cache when a similar deployment is known.
  if (options.cache != nullptr) {
    AIACC_CHECK(options.model != nullptr && options.topology.has_value());
    if (auto seed =
            options.cache->LookupSimilar(*options.model, *options.topology)) {
      AIACC_TRACE_INSTANT("autotune", "cache-seed");
      const double score = objective(*seed);
      result.history.push_back(
          TuneRecord{step_no++, "cache-seed", *seed, score, true});
      result.best_config = *seed;
      result.best_score = score;
      result.seeded_from_cache = true;
      steps.Add();
      reward.Record(score);
      best_gauge.Set(score);
    }
  }

  while (auto step = solver.NextStep()) {
    const std::string& searcher = solver.SearcherName(step->searcher_index);
    double score = 0.0;
    {
      AIACC_TRACE_SPAN_IDX("autotune.step", "step", step->searcher_index);
      score = objective(step->config);
    }
    solver.Report(*step, score);
    steps.Add();
    metrics.GetCounter(telemetry::Scoped("autotune.decisions", searcher))
        .Add();
    reward.Record(score);
    const bool new_best = result.history.empty() || score > result.best_score;
    if (new_best) {
      result.best_score = score;
      result.best_config = step->config;
      best_gauge.Set(score);
      AIACC_TRACE_INSTANT("autotune", "new-best");
    }
    result.history.push_back(
        TuneRecord{step_no++, searcher, step->config, score, new_best});
  }
  result.searcher_usage = solver.UsageCounts();

  if (options.cache != nullptr) {
    options.cache->Store(*options.model, *options.topology,
                         result.best_config, result.best_score);
  }
  return result;
}

}  // namespace aiacc::autotune
