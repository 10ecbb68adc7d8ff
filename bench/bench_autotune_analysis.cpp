// §VIII-D auto-tuning analysis: what the tuner actually picks across
// workloads and cluster sizes. The paper observes: ring chosen over tree;
// 2-24 concurrent streams, more streams with more GPUs; larger granularity
// for Transformer-class models. The warm-up search runs real (simulated)
// training iterations, so tuning cycles also advance training.
#include "bench_util.h"

using namespace aiacc;
using namespace aiacc::bench;

int main() {
  PrintHeader("§VIII-D — auto-tuned communication parameters",
              "Paper §VIII-D 'Auto-tuning parameters'",
              "streams grow with GPU count (2..24); Transformer-class "
              "models pick larger granularity; ring preferred");

  autotune::TuningCache cache;
  TablePrinter table({"model", "GPUs", "streams", "granularity", "algorithm",
                      "tuned thr", "default thr", "gain"});
  struct Workload {
    const char* model;
    int batch;
  };
  const Workload workloads[] = {
      {"vgg16", 64}, {"resnet50", 64}, {"bert-large", 8}};
  for (const Workload& w : workloads) {
    for (int gpus : {8, 64, 256}) {
      auto spec = MakeSpec(w.model, gpus, trainer::EngineKind::kAiaccAutotuned,
                           w.batch);
      spec.tune_budget = 48;
      spec.tuning_cache = &cache;
      const auto tuned = trainer::Run(spec);

      auto fixed = MakeSpec(w.model, gpus, trainer::EngineKind::kAiacc,
                            w.batch);
      fixed.aiacc_config = core::CommConfig{};  // library defaults
      const auto defaults = trainer::Run(fixed);

      const auto& cfg = tuned.chosen_config;
      table.AddRow({w.model, std::to_string(gpus),
                    std::to_string(cfg.num_streams),
                    FormatBytes(static_cast<double>(cfg.granularity_bytes)),
                    collective::ToString(cfg.algorithm),
                    FormatDouble(tuned.throughput, 0),
                    FormatDouble(defaults.throughput, 0),
                    FormatDouble(tuned.throughput / defaults.throughput, 2) +
                        "x"});
    }
  }
  table.Print();
  std::printf("\nTuning-cache entries accumulated: %zu (similar deployments "
              "seed each other's search, §VI)\n", cache.size());
  return 0;
}
