// Auto-tuner tests: each searcher improves over random on a synthetic
// throughput surface, the MAB meta-solver allocates budget sensibly (AUC
// credit + exploration), and the tuning cache's graph-edit-distance lookup
// seeds similar deployments.
#include <gtest/gtest.h>

#include <cmath>

#include "autotune/autotuner.h"
#include "autotune/meta_solver.h"
#include "autotune/searcher.h"
#include "autotune/tuning_cache.h"
#include "dnn/zoo.h"

namespace aiacc::autotune {
namespace {

/// Synthetic objective with a unique optimum at (streams=8, granularity=8MB,
/// ring): smooth in log-space, so model-based searchers can exploit it.
double SyntheticScore(const core::CommConfig& c) {
  const double s = std::log2(static_cast<double>(c.num_streams));
  const double g = std::log2(static_cast<double>(c.granularity_bytes >> 20));
  double score = 100.0;
  score -= (s - 3.0) * (s - 3.0) * 4.0;   // optimum at streams=8
  score -= (g - 3.0) * (g - 3.0) * 3.0;   // optimum at 8 MiB
  if (c.algorithm == collective::Algorithm::kHierarchical) score -= 5.0;
  return score;
}

TEST(SearcherTest, GridCoversSpaceWithoutRepeats) {
  core::CommConfigSpace space;
  GridSearcher grid(space);
  Rng rng(1);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < space.NumPoints(); ++i) {
    seen.insert(grid.Propose(rng).ToString());
  }
  EXPECT_EQ(seen.size(), space.NumPoints());
}

TEST(SearcherTest, GridEarlyProposalsSpanTheSpace) {
  core::CommConfigSpace space;
  GridSearcher grid(space);
  Rng rng(1);
  std::set<int> streams;
  for (int i = 0; i < 16; ++i) streams.insert(grid.Propose(rng).num_streams);
  EXPECT_GE(streams.size(), 4u);  // stratified, not crawling one axis
}

template <typename S>
double RunSearcher(int budget, std::uint64_t seed) {
  core::CommConfigSpace space;
  S searcher(space);
  Rng rng(seed);
  double best = -1e18;
  for (int i = 0; i < budget; ++i) {
    const core::CommConfig cfg = searcher.Propose(rng);
    const double score = SyntheticScore(cfg);
    searcher.Observe({cfg, score});
    best = std::max(best, score);
  }
  return best;
}

TEST(SearcherTest, AllSearchersApproachOptimum) {
  // Optimum is 100; each technique should get close within 40 evaluations.
  EXPECT_GT(RunSearcher<GridSearcher>(40, 2), 80.0);
  EXPECT_GT(RunSearcher<PbtSearcher>(40, 2), 80.0);
  EXPECT_GT(RunSearcher<BayesSearcher>(40, 2), 90.0);
  EXPECT_GT(RunSearcher<HyperbandSearcher>(40, 2), 80.0);
}

TEST(SearcherTest, BayesExploitsSmoothSurface) {
  // With enough observations, Bayesian optimization should find the exact
  // optimum on this smooth surface.
  core::CommConfigSpace space;
  BayesSearcher bayes(space);
  Rng rng(3);
  double best = -1e18;
  core::CommConfig best_cfg;
  for (int i = 0; i < 30; ++i) {
    const core::CommConfig cfg = bayes.Propose(rng);
    const double score = SyntheticScore(cfg);
    bayes.Observe({cfg, score});
    if (score > best) {
      best = score;
      best_cfg = cfg;
    }
  }
  EXPECT_EQ(best_cfg.num_streams, 8);
  EXPECT_EQ(best_cfg.granularity_bytes, 8u << 20);
}

TEST(MetaSolverTest, RespectsBudget) {
  core::CommConfigSpace space;
  MetaSolverParams params;
  params.budget = 25;
  MetaSolver solver(MakeDefaultEnsemble(space), params);
  int steps = 0;
  while (auto step = solver.NextStep()) {
    solver.Report(*step, SyntheticScore(step->config));
    ++steps;
  }
  EXPECT_EQ(steps, 25);
  EXPECT_TRUE(solver.BudgetExhausted());
  EXPECT_EQ(solver.NextStep(), std::nullopt);
}

TEST(MetaSolverTest, TriesEveryArmAtLeastOnce) {
  core::CommConfigSpace space;
  MetaSolverParams params;
  params.budget = 30;
  MetaSolver solver(MakeDefaultEnsemble(space), params);
  while (auto step = solver.NextStep()) {
    solver.Report(*step, SyntheticScore(step->config));
  }
  for (int count : solver.UsageCounts()) EXPECT_GE(count, 1);
}

TEST(MetaSolverTest, FindsNearOptimalConfig) {
  core::CommConfigSpace space;
  MetaSolverParams params;
  params.budget = 100;  // the paper's default warm-up budget
  MetaSolver solver(MakeDefaultEnsemble(space), params);
  while (auto step = solver.NextStep()) {
    solver.Report(*step, SyntheticScore(step->config));
  }
  EXPECT_GT(solver.BestScore(), 95.0);
  EXPECT_EQ(solver.BestConfig().num_streams, 8);
}

TEST(MetaSolverTest, AucRewardsImprovingArm) {
  // Arm 0 always improves (monotone scores); arm 1 never does. The AUC
  // credit must favour arm 0.
  core::CommConfigSpace space;
  std::vector<std::unique_ptr<Searcher>> searchers;
  searchers.push_back(std::make_unique<GridSearcher>(space));
  searchers.push_back(std::make_unique<GridSearcher>(space));
  MetaSolverParams params;
  params.budget = 40;
  MetaSolver solver(std::move(searchers), params);
  double score = 0.0;
  for (int i = 0; i < 20; ++i) {
    auto step = solver.NextStep();
    ASSERT_TRUE(step.has_value());
    // Arm 0 delivers steadily rising scores; arm 1 flat zero.
    const double s = step->searcher_index == 0 ? (score += 1.0) : 0.0;
    solver.Report(*step, s);
  }
  EXPECT_GT(solver.Auc(0), solver.Auc(1));
  EXPECT_GT(solver.UsageCounts()[0], solver.UsageCounts()[1]);
}

TEST(MetaSolverTest, ExplorationBonusShrinksWithUse) {
  core::CommConfigSpace space;
  MetaSolverParams params;
  params.budget = 50;
  MetaSolver solver(MakeDefaultEnsemble(space), params);
  // Feed flat scores: priorities reduce to the exploration term, so the
  // solver round-robins all arms instead of fixating.
  while (auto step = solver.NextStep()) {
    solver.Report(*step, 1.0);
  }
  const auto& usage = solver.UsageCounts();
  const int max_use = *std::max_element(usage.begin(), usage.end());
  const int min_use = *std::min_element(usage.begin(), usage.end());
  EXPECT_LE(max_use - min_use, 30);
  EXPECT_GE(min_use, 3);
}

// ------------------------------------------------------------ TuningCache --

TEST(GraphDistanceTest, IdenticalGraphsZero) {
  const auto g = dnn::MakeResNet50().GraphFingerprint();
  EXPECT_DOUBLE_EQ(GraphDistance(g, g), 0.0);
}

TEST(GraphDistanceTest, SimilarModelsCloserThanDifferent) {
  const auto r50 = dnn::MakeResNet50().GraphFingerprint();
  const auto r101 = dnn::MakeResNet101().GraphFingerprint();
  const auto bert = dnn::MakeBertLarge().GraphFingerprint();
  EXPECT_LT(GraphDistance(r50, r101), GraphDistance(r50, bert));
}

TEST(GraphDistanceTest, NormalizedToUnitRange) {
  const auto r50 = dnn::MakeResNet50().GraphFingerprint();
  const auto bert = dnn::MakeBertLarge().GraphFingerprint();
  const double d = GraphDistance(r50, bert);
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 1.0);
}

TEST(TopologyDistanceTest, TransportMismatchDominates) {
  net::Topology tcp{4, 8, net::TransportKind::kTcp};
  net::Topology rdma{4, 8, net::TransportKind::kRdma};
  net::Topology bigger_tcp{8, 8, net::TransportKind::kTcp};
  EXPECT_GT(TopologyDistance(tcp, rdma), TopologyDistance(tcp, bigger_tcp));
  EXPECT_DOUBLE_EQ(TopologyDistance(tcp, tcp), 0.0);
}

TEST(TuningCacheTest, ExactHitReturnsStoredConfig) {
  TuningCache cache;
  const auto model = dnn::MakeResNet50();
  net::Topology topo{4, 8, net::TransportKind::kTcp};
  core::CommConfig cfg;
  cfg.num_streams = 12;
  cache.Store(model, topo, cfg, 100.0);
  auto hit = cache.LookupSimilar(model, topo);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_streams, 12);
}

TEST(TuningCacheTest, SimilarModelHits) {
  TuningCache cache;
  net::Topology topo{4, 8, net::TransportKind::kTcp};
  core::CommConfig cfg;
  cfg.num_streams = 16;
  cache.Store(dnn::MakeResNet50(), topo, cfg, 100.0);
  // ResNet-101 on a slightly larger cluster is "similar".
  net::Topology topo2{8, 8, net::TransportKind::kTcp};
  auto hit = cache.LookupSimilar(dnn::MakeResNet101(), topo2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_streams, 16);
}

TEST(TuningCacheTest, DissimilarModelMisses) {
  TuningCache cache;
  net::Topology topo{4, 8, net::TransportKind::kTcp};
  cache.Store(dnn::MakeResNet50(), topo, core::CommConfig{}, 100.0);
  net::Topology rdma{32, 8, net::TransportKind::kRdma};
  EXPECT_FALSE(cache.LookupSimilar(dnn::MakeBertLarge(), rdma).has_value());
}

TEST(TuningCacheTest, StoreKeepsBestScore) {
  TuningCache cache;
  const auto model = dnn::MakeResNet50();
  net::Topology topo{4, 8, net::TransportKind::kTcp};
  core::CommConfig good;
  good.num_streams = 8;
  core::CommConfig bad;
  bad.num_streams = 1;
  cache.Store(model, topo, good, 100.0);
  cache.Store(model, topo, bad, 50.0);  // worse: must not replace
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.LookupSimilar(model, topo)->num_streams, 8);
}

TEST(TuningCacheTest, SerializeRoundTrip) {
  TuningCache cache;
  net::Topology topo{4, 8, net::TransportKind::kTcp};
  core::CommConfig cfg;
  cfg.num_streams = 12;
  cfg.granularity_bytes = 16u << 20;
  cfg.algorithm = collective::Algorithm::kHierarchical;
  cache.Store(dnn::MakeResNet50(), topo, cfg, 123.0);
  cache.Store(dnn::MakeBertLarge(),
              net::Topology{32, 8, net::TransportKind::kRdma},
              core::CommConfig{}, 77.0);

  TuningCache restored;
  ASSERT_TRUE(restored.Deserialize(cache.Serialize()).ok());
  ASSERT_EQ(restored.size(), 2u);
  auto hit = restored.LookupSimilar(dnn::MakeResNet50(), topo);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->num_streams, 12);
  EXPECT_EQ(hit->granularity_bytes, 16u << 20);
  EXPECT_EQ(hit->algorithm, collective::Algorithm::kHierarchical);
}

TEST(TuningCacheTest, FileRoundTripAndCorruptionRejected) {
  TuningCache cache;
  cache.Store(dnn::MakeResNet50(),
              net::Topology{4, 8, net::TransportKind::kTcp},
              core::CommConfig{}, 10.0);
  const std::string path = ::testing::TempDir() + "/tuning_cache_test.bin";
  ASSERT_TRUE(cache.SaveTo(path).ok());
  TuningCache loaded;
  ASSERT_TRUE(loaded.LoadFrom(path).ok());
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());

  auto bytes = cache.Serialize();
  bytes[0] ^= 0xFF;  // bad magic
  TuningCache corrupt;
  EXPECT_FALSE(corrupt.Deserialize(bytes).ok());
  bytes = cache.Serialize();
  bytes.resize(bytes.size() / 2);  // truncated
  EXPECT_FALSE(corrupt.Deserialize(bytes).ok());
}

TEST(TuningCacheTest, RejectsUnknownFutureVersion) {
  // 4 is the retired format that also stored fields the tuner never varied.
  for (const std::uint32_t version : {4u, 99u}) {
    ByteWriter w;
    w.WriteU32(0xA1ACCCA5);
    w.WriteU32(version);
    w.WriteU64(0);
    TuningCache cache;
    const auto st = cache.Deserialize(std::move(w).Take());
    EXPECT_FALSE(st.ok()) << version;
    EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << version;
  }
}

TEST(TuningCacheTest, MissingFileIsNotFound) {
  TuningCache cache;
  const auto st = cache.LoadFrom("/nonexistent/cache.bin");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(TuningCacheTest, DirectoryPathIsDataLoss) {
  TuningCache cache;
  const auto st = cache.LoadFrom(::testing::TempDir());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

// -------------------------------------------------------------- Autotune --

TEST(AutotuneTest, TuneFindsGoodConfigAndRecordsHistory) {
  AutotuneOptions options;
  options.solver.budget = 60;
  const auto result = Tune(SyntheticScore, options);
  EXPECT_GT(result.best_score, 90.0);
  EXPECT_EQ(result.history.size(), 60u);
  EXPECT_EQ(result.searcher_names.size(), 4u);
  // History records the running best.
  double best = -1e18;
  for (const auto& rec : result.history) {
    if (rec.new_best) EXPECT_GT(rec.score, best);
    best = std::max(best, rec.score);
  }
}

TEST(AutotuneTest, CacheSeedEvaluatedFirst) {
  TuningCache cache;
  const auto model = dnn::MakeResNet50();
  net::Topology topo{4, 8, net::TransportKind::kTcp};
  core::CommConfig seed;
  seed.num_streams = 8;
  seed.granularity_bytes = 8u << 20;
  cache.Store(model, topo, seed, 1.0);

  AutotuneOptions options;
  options.solver.budget = 10;
  options.cache = &cache;
  options.model = &model;
  options.topology = topo;
  const auto result = Tune(SyntheticScore, options);
  EXPECT_TRUE(result.seeded_from_cache);
  EXPECT_EQ(result.history.front().searcher, "cache-seed");
  EXPECT_EQ(result.history.front().config.num_streams, 8);
  // The seed is the synthetic optimum, so it should win.
  EXPECT_EQ(result.best_config.num_streams, 8);
}

TEST(AutotuneTest, DeterministicAcrossRuns) {
  AutotuneOptions options;
  options.solver.budget = 30;
  const auto a = Tune(SyntheticScore, options);
  const auto b = Tune(SyntheticScore, options);
  EXPECT_EQ(a.best_config, b.best_config);
  EXPECT_EQ(a.best_score, b.best_score);
}

}  // namespace
}  // namespace aiacc::autotune
