// Harness-level tests: topology construction, scaling sweeps, hybrid
// parallelism, and the auto-tuned engine path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "trainer/harness.h"

namespace aiacc::trainer {
namespace {

TEST(TopologyBuilderTest, SmallCountsStayOnOneHost) {
  for (int gpus : {1, 2, 4, 8}) {
    const auto topo = MakeTopology(gpus);
    EXPECT_EQ(topo.num_hosts, 1);
    EXPECT_EQ(topo.gpus_per_host, gpus);
    EXPECT_EQ(topo.WorldSize(), gpus);
  }
}

TEST(TopologyBuilderTest, LargeCountsUseFullHosts) {
  const auto topo = MakeTopology(64);
  EXPECT_EQ(topo.num_hosts, 8);
  EXPECT_EQ(topo.gpus_per_host, 8);
  EXPECT_TRUE(topo.IsMultiNode());
}

TEST(TopologyBuilderTest, RankMapping) {
  const auto topo = MakeTopology(32);
  EXPECT_EQ(topo.HostOfRank(0), 0);
  EXPECT_EQ(topo.HostOfRank(7), 0);
  EXPECT_EQ(topo.HostOfRank(8), 1);
  EXPECT_EQ(topo.LocalIndexOfRank(13), 5);
  EXPECT_TRUE(topo.SameHost(8, 15));
  EXPECT_FALSE(topo.SameHost(7, 8));
}

TEST(ScalingSweepTest, EfficiencyInUnitRangeAndMonotoneDecline) {
  RunSpec spec;
  spec.model_name = "resnet50";
  spec.topology = MakeTopology(64);
  spec.engine = EngineKind::kHorovod;
  spec.warmup_iterations = 1;
  spec.measure_iterations = 3;
  const auto points = ScalingSweep(spec, {8, 16, 64});
  ASSERT_EQ(points.size(), 3u);
  double prev_eff = 1.1;
  for (const auto& p : points) {
    EXPECT_GT(p.scaling_efficiency, 0.0);
    EXPECT_LE(p.scaling_efficiency, 1.02);
    EXPECT_LE(p.scaling_efficiency, prev_eff + 1e-9);
    prev_eff = p.scaling_efficiency;
  }
  EXPECT_GT(points[2].throughput, points[0].throughput);
}

TEST(HybridTest, AiaccBeatsKvStoreBaselineMultiNode) {
  HybridSpec spec;
  spec.model_name = "resnet50";
  spec.topology = MakeTopology(32);
  spec.model_shards = 2;
  spec.measure_iterations = 3;
  spec.use_aiacc = true;
  const double aiacc = RunHybrid(spec);
  spec.use_aiacc = false;
  const double kv = RunHybrid(spec);
  EXPECT_GT(aiacc, kv * 1.2);
}

TEST(HybridTest, MoreShardsMeansLessGradientTrafficPerGroup) {
  // 4-way model parallelism still completes and produces sane throughput.
  HybridSpec spec;
  spec.model_name = "resnet50";
  spec.topology = MakeTopology(32);
  spec.model_shards = 4;
  spec.measure_iterations = 3;
  spec.use_aiacc = true;
  const double thr = RunHybrid(spec);
  EXPECT_GT(thr, 0.0);
}

TEST(AutotunedRunTest, FindsConfigAtLeastAsGoodAsDefault) {
  RunSpec tuned;
  tuned.model_name = "vgg16";
  tuned.topology = MakeTopology(32);
  tuned.engine = EngineKind::kAiaccAutotuned;
  tuned.tune_budget = 24;
  tuned.warmup_iterations = 1;
  tuned.measure_iterations = 3;
  const auto tuned_result = ::aiacc::trainer::Run(tuned);

  RunSpec fixed = tuned;
  fixed.engine = EngineKind::kAiacc;
  const auto fixed_result = ::aiacc::trainer::Run(fixed);

  EXPECT_GE(tuned_result.throughput, fixed_result.throughput * 0.98);
  ASSERT_TRUE(tuned_result.tuning.has_value());
  EXPECT_EQ(static_cast<int>(tuned_result.tuning->history.size()), 24);
  EXPECT_EQ(tuned_result.chosen_config,
            tuned_result.tuning->best_config);
}

TEST(AutotunedRunTest, CacheSeedsSecondDeployment) {
  autotune::TuningCache cache;
  RunSpec first;
  first.model_name = "resnet50";
  first.topology = MakeTopology(32);
  first.engine = EngineKind::kAiaccAutotuned;
  first.tune_budget = 16;
  first.warmup_iterations = 1;
  first.measure_iterations = 2;
  first.tuning_cache = &cache;
  (void)::aiacc::trainer::Run(first);
  EXPECT_EQ(cache.size(), 1u);

  // A similar deployment (same model, twice the hosts) starts from the
  // cached configuration.
  RunSpec second = first;
  second.topology = MakeTopology(64);
  const auto r = ::aiacc::trainer::Run(second);
  ASSERT_TRUE(r.tuning.has_value());
  EXPECT_TRUE(r.tuning->seeded_from_cache);
  EXPECT_EQ(r.tuning->history.front().searcher, "cache-seed");
}

/// The fields of a CommConfig as ToString renders them ("streams=8", ...).
std::vector<std::string> ConfigFields(const core::CommConfig& cfg) {
  std::string text = cfg.ToString();
  text = text.substr(1, text.size() - 2);  // strip the braces
  std::vector<std::string> fields;
  for (std::size_t at = 0; at <= text.size();) {
    const std::size_t comma = std::min(text.find(", ", at), text.size());
    fields.push_back(text.substr(at, comma - at));
    at = comma + 2;
  }
  return fields;
}

// A tuner can only tune what its objective measures. For every CommConfig
// field that varies across the search space, some two configs that differ
// only in that field must give different one-iteration sim durations
// (ResNet-50, 32 GPUs); an axis the simulator ignores would only add points
// with tied scores.
TEST(AutotuneSpaceTest, EveryAxisMovesTheSimDuration) {
  const auto configs = core::CommConfigSpace{}.AllConfigs();
  std::vector<std::vector<std::string>> fields;
  std::vector<double> durations;
  for (const auto& cfg : configs) {
    RunSpec spec;
    spec.model_name = "resnet50";
    spec.topology = MakeTopology(32);
    spec.aiacc_config = cfg;
    spec.warmup_iterations = 0;
    spec.measure_iterations = 1;
    durations.push_back(::aiacc::trainer::Run(spec).iteration_time);
    fields.push_back(ConfigFields(cfg));
  }
  int axes = 0;
  for (std::size_t f = 0; f < fields.front().size(); ++f) {
    bool varies = false;
    bool moves = false;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      for (std::size_t j = i + 1; j < configs.size(); ++j) {
        bool only_f = fields[i][f] != fields[j][f];
        for (std::size_t g = 0; only_f && g < fields[i].size(); ++g) {
          only_f = g == f || fields[i][g] == fields[j][g];
        }
        if (!only_f) continue;
        varies = true;
        moves = moves || durations[i] != durations[j];
      }
    }
    if (!varies) continue;
    ++axes;
    EXPECT_TRUE(moves) << "no pair differing only in " << fields.front()[f]
                       << " changes the sim duration";
  }
  EXPECT_EQ(axes, 3);  // streams, granularity, algorithm
}

TEST(EngineNameTest, AllKindsStringify) {
  for (auto kind : {EngineKind::kAiacc, EngineKind::kAiaccAutotuned,
                    EngineKind::kHorovod, EngineKind::kPytorchDdp,
                    EngineKind::kByteps, EngineKind::kMxnetKvstore}) {
    EXPECT_NE(ToString(kind), "?");
  }
}

}  // namespace
}  // namespace aiacc::trainer
