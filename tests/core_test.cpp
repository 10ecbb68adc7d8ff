// Core-module unit tests: gradient registry, streaming packer (merge/split
// round-trips, property sweeps), sync protocols' cost structure, optimizers'
// math, NaN detection, checkpoint round-trips and corruption handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "collective/threaded.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/config.h"
#include "core/optimizer.h"
#include "core/packing.h"
#include "core/registry.h"
#include "core/sync.h"
#include "dnn/zoo.h"

namespace aiacc::core {
namespace {

// -------------------------------------------------------------- Registry ---

TEST(RegistryTest, AssignsSortedDenseIds) {
  GradientRegistry reg;
  ASSERT_TRUE(reg.Register("zeta", 100).ok());
  ASSERT_TRUE(reg.Register("alpha", 200).ok());
  ASSERT_TRUE(reg.Register("mid", 300).ok());
  reg.Finalize();
  EXPECT_EQ(reg.size(), 3);
  EXPECT_EQ(reg.Get(0).name, "alpha");
  EXPECT_EQ(reg.Get(1).name, "mid");
  EXPECT_EQ(reg.Get(2).name, "zeta");
  EXPECT_EQ(*reg.IdOf("zeta"), 2);
  EXPECT_EQ(reg.TotalBytes(), 600u);
}

TEST(RegistryTest, RejectsDuplicatesAndZeroSize) {
  GradientRegistry reg;
  ASSERT_TRUE(reg.Register("a", 10).ok());
  EXPECT_EQ(reg.Register("a", 10).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(reg.Register("b", 0).code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, RejectsRegistrationAfterFinalize) {
  GradientRegistry reg;
  ASSERT_TRUE(reg.Register("a", 10).ok());
  reg.Finalize();
  EXPECT_EQ(reg.Register("b", 10).code(), StatusCode::kFailedPrecondition);
}

TEST(RegistryTest, FromModelCoversAllGradients) {
  const auto model = dnn::MakeResNet50();
  const auto reg = GradientRegistry::FromModel(model);
  EXPECT_EQ(reg.size(), model.NumGradients());
  EXPECT_EQ(reg.TotalBytes(), model.TotalParameterBytes());
  EXPECT_EQ(reg.SyncVectorBytes(),
            (static_cast<std::size_t>(model.NumGradients()) + 7) / 8);
}

TEST(RegistryTest, IdOfMissingGradient) {
  GradientRegistry reg;
  ASSERT_TRUE(reg.Register("a", 10).ok());
  reg.Finalize();
  EXPECT_FALSE(reg.IdOf("missing").ok());
}

// --------------------------------------------------------------- Packing ---

GradientRegistry MakeRegistry(const std::vector<std::size_t>& sizes) {
  GradientRegistry reg;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    // Zero-pad names so sorting preserves the input order.
    char name[32];
    std::snprintf(name, sizeof(name), "g%04zu", i);
    EXPECT_TRUE(reg.Register(name, sizes[i]).ok());
  }
  reg.Finalize();
  return reg;
}

/// Add `ids` with their registered sizes, flush and drain: the units an
/// engine dispatches for one iteration whose gradients became ready in
/// this order.
std::vector<AllReduceUnit> PackIds(StreamingPacker& packer,
                                   const GradientRegistry& reg,
                                   const std::vector<int>& ids) {
  for (int id : ids) packer.Add(id, reg.Get(id).bytes);
  packer.Flush();
  std::vector<AllReduceUnit> units;
  while (packer.HasReadyUnit()) units.push_back(packer.PopReadyUnit());
  return units;
}

TEST(PackingTest, MergesSmallGradients) {
  auto reg = MakeRegistry({100, 100, 100, 100});
  StreamingPacker packer(400);
  auto units = PackIds(packer, reg, {0, 1, 2, 3});
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].segments.size(), 4u);
  EXPECT_EQ(units[0].TotalBytes(), 400u);
}

TEST(PackingTest, SplitsLargeGradient) {
  auto reg = MakeRegistry({1000});
  StreamingPacker packer(256);
  auto units = PackIds(packer, reg, {0});
  ASSERT_EQ(units.size(), 4u);  // 256+256+256+232
  EXPECT_EQ(units[0].TotalBytes(), 256u);
  EXPECT_EQ(units[3].TotalBytes(), 232u);
  // Offsets are contiguous.
  std::size_t offset = 0;
  for (const auto& u : units) {
    for (const auto& seg : u.segments) {
      EXPECT_EQ(seg.gradient_id, 0);
      EXPECT_EQ(seg.offset, offset);
      offset += seg.length;
    }
  }
  EXPECT_EQ(offset, 1000u);
}

TEST(PackingTest, MixedMergeAndSplit) {
  auto reg = MakeRegistry({50, 500, 60});
  StreamingPacker packer(200);
  auto units = PackIds(packer, reg, {0, 1, 2});
  // Every byte exactly once.
  std::vector<std::size_t> covered(3, 0);
  for (const auto& u : units) {
    EXPECT_LE(u.TotalBytes(), 200u);
    for (const auto& seg : u.segments) {
      covered[static_cast<std::size_t>(seg.gradient_id)] += seg.length;
    }
  }
  EXPECT_EQ(covered, (std::vector<std::size_t>{50, 500, 60}));
}

TEST(PackingTest, AlignmentKeepsElementBoundaries) {
  auto reg = MakeRegistry({10, 10});  // not multiples of granularity
  StreamingPacker packer(16, /*alignment=*/4);
  auto units = PackIds(packer, reg, {0, 1});
  for (const auto& u : units) {
    for (const auto& seg : u.segments) {
      EXPECT_EQ(seg.offset % 4, 0u);
      // Interior slices stay aligned; the final slice of a tensor may carry
      // the (element-aligned) remainder.
    }
  }
}

TEST(PackingTest, RespectsReadySubset) {
  auto reg = MakeRegistry({100, 100, 100});
  StreamingPacker packer(1000);
  auto units = PackIds(packer, reg, {0, 2});
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].segments.size(), 2u);
  EXPECT_EQ(units[0].segments[0].gradient_id, 0);
  EXPECT_EQ(units[0].segments[1].gradient_id, 2);
}

TEST(PackingTest, UnitIdsAreUniqueAcrossCalls) {
  auto reg = MakeRegistry({100});
  StreamingPacker packer(50);
  auto u1 = PackIds(packer, reg, {0});
  auto u2 = PackIds(packer, reg, {0});
  std::vector<std::uint64_t> ids;
  for (const auto& u : u1) ids.push_back(u.unit_id);
  for (const auto& u : u2) ids.push_back(u.unit_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

class PackingPropertyP
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(PackingPropertyP, EveryByteExactlyOnceAndOrdered) {
  const auto [n_grads, granularity] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n_grads) * 31 + granularity);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < n_grads; ++i) {
    sizes.push_back(static_cast<std::size_t>(rng.UniformInt(4, 100000)) & ~3u);
  }
  auto reg = MakeRegistry(sizes);
  StreamingPacker packer(granularity);
  std::vector<int> ready(static_cast<std::size_t>(n_grads));
  std::iota(ready.begin(), ready.end(), 0);
  auto units = PackIds(packer, reg, ready);

  std::vector<std::size_t> covered(sizes.size(), 0);
  std::size_t total = 0;
  int last_grad = -1;
  for (const auto& u : units) {
    for (const auto& seg : u.segments) {
      // Id order is preserved (workers implicitly agree on order).
      EXPECT_GE(seg.gradient_id, last_grad);
      last_grad = seg.gradient_id;
      covered[static_cast<std::size_t>(seg.gradient_id)] += seg.length;
      total += seg.length;
    }
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(covered[i], sizes[i]);
  }
  EXPECT_EQ(total, reg.TotalBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackingPropertyP,
    ::testing::Combine(::testing::Values(1, 3, 10, 50),
                       ::testing::Values(std::size_t{64}, std::size_t{4096},
                                         std::size_t{1} << 20)));

TEST(StreamingPackerTest, ClosesUnitsExactlyAtGranularity) {
  StreamingPacker packer(100);
  packer.Add(/*id=*/0, 250);
  EXPECT_EQ(packer.ReadyUnits(), 2u);   // 100 + 100
  EXPECT_EQ(packer.PendingBytes(), 50u);
  packer.Add(1, 30);
  EXPECT_EQ(packer.ReadyUnits(), 2u);   // 80 pending
  packer.Add(2, 20);
  EXPECT_EQ(packer.ReadyUnits(), 3u);   // filled to exactly 100
  EXPECT_EQ(packer.PendingBytes(), 0u);
}

TEST(StreamingPackerTest, PartialOnlyEmittedOnFlush) {
  StreamingPacker packer(1000);
  packer.Add(0, 300);
  packer.Add(1, 300);
  EXPECT_FALSE(packer.HasReadyUnit());
  packer.Flush();
  ASSERT_TRUE(packer.HasReadyUnit());
  const auto unit = packer.PopReadyUnit();
  EXPECT_EQ(unit.TotalBytes(), 600u);
  EXPECT_EQ(unit.segments.size(), 2u);
}

TEST(StreamingPackerTest, SplitGradientHasContiguousOffsets) {
  StreamingPacker packer(64);
  packer.Add(7, 200);
  packer.Flush();
  std::size_t offset = 0;
  while (packer.HasReadyUnit()) {
    const auto unit = packer.PopReadyUnit();
    for (const auto& seg : unit.segments) {
      EXPECT_EQ(seg.gradient_id, 7);
      EXPECT_EQ(seg.offset, offset);
      offset += seg.length;
    }
  }
  EXPECT_EQ(offset, 200u);
}

TEST(StreamingPackerTest, CrossRoundFusion) {
  // Gradients arriving in different sync rounds fuse into one unit — the
  // behaviour that distinguishes streaming packing from per-round packing.
  StreamingPacker packer(1 << 20);
  packer.Add(0, 300 << 10);  // round 1
  packer.Add(1, 300 << 10);  // round 2
  packer.Add(2, 300 << 10);  // round 3
  EXPECT_FALSE(packer.HasReadyUnit());
  packer.Add(3, 300 << 10);  // round 4: crosses 1 MiB
  EXPECT_EQ(packer.ReadyUnits(), 1u);
  const auto unit = packer.PopReadyUnit();
  EXPECT_EQ(unit.TotalBytes(), std::size_t{1} << 20);
  EXPECT_EQ(unit.segments.size(), 4u);  // all four gradients contribute
}

TEST(StreamingPackerTest, UnitIdsMonotone) {
  StreamingPacker packer(10);
  packer.Add(0, 35);
  packer.Flush();
  std::uint64_t prev = 0;
  while (packer.HasReadyUnit()) {
    const auto unit = packer.PopReadyUnit();
    EXPECT_GT(unit.unit_id, prev);
    prev = unit.unit_id;
  }
}

TEST(StreamingPackerTest, ResetDropsEverything) {
  StreamingPacker packer(100);
  packer.Add(0, 250);
  packer.Reset();
  EXPECT_FALSE(packer.HasReadyUnit());
  EXPECT_EQ(packer.PendingBytes(), 0u);
}

TEST(StreamingPackerTest, AlignmentPreserved) {
  StreamingPacker packer(10, /*alignment=*/4);
  packer.Add(0, 26);
  packer.Flush();
  std::size_t total = 0;
  while (packer.HasReadyUnit()) {
    const auto unit = packer.PopReadyUnit();
    for (const auto& seg : unit.segments) {
      EXPECT_EQ(seg.offset % 4, 0u);
      total += seg.length;
    }
  }
  EXPECT_EQ(total, 26u);
}

TEST(PackingTest, GatherScatterRoundTrip) {
  // Tensors of 8, 16 and 4 floats packed into 48-byte units: the first
  // unit merges tensor 0 with the head of tensor 1, which splits.
  auto reg = MakeRegistry({32, 64, 16});
  StreamingPacker packer(48);
  auto units = PackIds(packer, reg, {0, 1, 2});
  ASSERT_GT(units.size(), 1u);

  std::vector<std::vector<float>> grads = {
      std::vector<float>(8), std::vector<float>(16), std::vector<float>(4)};
  Rng rng(9);
  for (auto& g : grads) {
    for (auto& x : g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  auto original = grads;

  // Gather: each unit's pieces, read into one staging buffer, hold the
  // unit's segments back to back.
  std::vector<std::span<float>> pieces;
  std::vector<std::vector<float>> staged;
  for (const auto& u : units) {
    UnitPieces(u, grads, pieces);
    ASSERT_EQ(pieces.size(), u.segments.size());
    staged.emplace_back(u.TotalBytes() / sizeof(float));
    collective::ReadPieces(pieces, staged.back());
    std::size_t at = 0;
    for (const UnitSegment& seg : u.segments) {
      const auto& g = grads[static_cast<std::size_t>(seg.gradient_id)];
      const auto first = g.begin() + static_cast<std::ptrdiff_t>(
                                         seg.offset / sizeof(float));
      EXPECT_TRUE(std::equal(first,
                             first + static_cast<std::ptrdiff_t>(
                                         seg.length / sizeof(float)),
                             staged.back().begin() +
                                 static_cast<std::ptrdiff_t>(at)));
      at += seg.length / sizeof(float);
    }
  }
  // Wipe and scatter back.
  for (auto& g : grads) std::fill(g.begin(), g.end(), 0.0f);
  for (std::size_t i = 0; i < units.size(); ++i) {
    UnitPieces(units[i], grads, pieces);
    collective::WritePieces(staged[i], pieces);
  }
  EXPECT_EQ(grads, original);
}

TEST(PackingDeathTest, UnitPiecesRejectsASegmentPastItsTensor) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<std::vector<float>> grads = {std::vector<float>(4)};
  AllReduceUnit unit;
  unit.segments.push_back(UnitSegment{0, 8, 12});  // floats [2, 5) of 4
  std::vector<std::span<float>> pieces;
  EXPECT_DEATH(UnitPieces(unit, grads, pieces), "tensor.size_bytes");
}

// ------------------------------------------------------------------ Sync ---

TEST(SyncTest, DecentralizedRoundCostScalesWithHosts) {
  sim::Engine engine;
  net::CloudFabric f2(engine, net::Topology{2, 8, net::TransportKind::kTcp},
                      net::FabricParams{});
  DecentralizedSync s2(f2);
  sim::Engine engine2;
  net::CloudFabric f8(engine2, net::Topology{8, 8, net::TransportKind::kTcp},
                      net::FabricParams{});
  DecentralizedSync s8(f8);
  EXPECT_LT(s2.RoundCost(100), s8.RoundCost(100));
  // But far below a linear-in-world-size master incast.
  EXPECT_LT(s8.RoundCost(100), 1e-2);
}

TEST(SyncTest, DecentralizedDeliversAgreedVector) {
  sim::Engine engine;
  net::CloudFabric fabric(engine, net::Topology{2, 2, net::TransportKind::kTcp},
                          net::FabricParams{});
  DecentralizedSync sync(fabric);
  BitVector ready(10);
  ready.Set(3);
  ready.Set(7);
  BitVector agreed;
  sync.StartRound(ready, [&](BitVector v) { agreed = std::move(v); });
  engine.Run();
  EXPECT_EQ(agreed, ready);
  EXPECT_EQ(sync.RoundsCompleted(), 1u);
}

TEST(SyncTest, MasterProcessingScalesWithWorldAndTensors) {
  sim::Engine engine;
  net::CloudFabric small(engine, net::Topology{2, 8, net::TransportKind::kTcp},
                         net::FabricParams{});
  MasterSync sync_small(small);
  sim::Engine engine2;
  net::CloudFabric big(engine2, net::Topology{32, 8, net::TransportKind::kTcp},
                       net::FabricParams{});
  MasterSync sync_big(big);
  EXPECT_GT(sync_big.MasterProcessingCost(10),
            10.0 * sync_small.MasterProcessingCost(10));
  EXPECT_GT(sync_big.MasterProcessingCost(2000),
            sync_big.MasterProcessingCost(10));
}

TEST(SyncTest, MasterSerializesConcurrentRounds) {
  sim::Engine engine;
  net::CloudFabric fabric(engine,
                          net::Topology{8, 8, net::TransportKind::kTcp},
                          net::FabricParams{});
  SyncParams params;
  MasterSync sync(fabric, params);
  BitVector ready(100);
  for (std::size_t i = 0; i < 100; ++i) ready.Set(i);
  std::vector<double> completions;
  for (int r = 0; r < 4; ++r) {
    sync.StartRound(ready, [&](BitVector) {
      completions.push_back(engine.Now());
    });
  }
  engine.Run();
  ASSERT_EQ(completions.size(), 4u);
  // Rounds queue behind the serialized master: completions are spaced by at
  // least the processing cost.
  const double spacing = sync.MasterProcessingCost(100);
  for (std::size_t i = 1; i < completions.size(); ++i) {
    EXPECT_GE(completions[i] - completions[i - 1], spacing * 0.99);
  }
}

TEST(SyncTest, DecentralizedBeatsMasterAtScale) {
  // The §VIII-C story: at many hosts and many tensors, the decentralized
  // bit-vector round is far cheaper than the master's serialized handling.
  sim::Engine engine;
  net::CloudFabric fabric(engine,
                          net::Topology{16, 8, net::TransportKind::kTcp},
                          net::FabricParams{});
  DecentralizedSync dec(fabric);
  MasterSync mas(fabric);
  EXPECT_LT(dec.RoundCost(2000 / 8), mas.MasterProcessingCost(2000));
}

// ------------------------------------------------------------- Optimizer ---

TEST(LrScheduleTest, LinearDecay) {
  LinearDecay lr(1.0, 100);
  EXPECT_DOUBLE_EQ(lr.LearningRate(0), 1.0);
  EXPECT_DOUBLE_EQ(lr.LearningRate(50), 0.5);
  EXPECT_DOUBLE_EQ(lr.LearningRate(100), 0.0);
  EXPECT_DOUBLE_EQ(lr.LearningRate(1000), 0.0);
  LinearDecay floored(1.0, 100, 0.1);
  EXPECT_DOUBLE_EQ(floored.LearningRate(100), 0.1);
}

TEST(LrScheduleTest, StepDecay) {
  StepDecay lr(1.0, 30, 0.1);
  EXPECT_DOUBLE_EQ(lr.LearningRate(0), 1.0);
  EXPECT_DOUBLE_EQ(lr.LearningRate(29), 1.0);
  EXPECT_DOUBLE_EQ(lr.LearningRate(30), 0.1);
  EXPECT_NEAR(lr.LearningRate(60), 0.01, 1e-12);
}

std::vector<std::span<float>> Views(std::vector<std::vector<float>>& ts) {
  std::vector<std::span<float>> out;
  for (auto& t : ts) out.emplace_back(t);
  return out;
}
std::vector<std::span<const float>> ConstViews(
    std::vector<std::vector<float>>& ts) {
  std::vector<std::span<const float>> out;
  for (auto& t : ts) out.emplace_back(t);
  return out;
}

TEST(OptimizerTest, SgdMomentumMatchesManualComputation) {
  std::vector<std::vector<float>> params = {{1.0f, 2.0f}};
  std::vector<std::vector<float>> grads = {{0.5f, -0.5f}};
  SgdOptimizer sgd(0.9);
  sgd.Step(Views(params), ConstViews(grads), 0.1);
  // v = g, p -= lr*v.
  EXPECT_NEAR(params[0][0], 1.0f - 0.05f, 1e-6);
  EXPECT_NEAR(params[0][1], 2.0f + 0.05f, 1e-6);
  sgd.Step(Views(params), ConstViews(grads), 0.1);
  // v = 0.9*g + g = 0.95; p -= 0.095.
  EXPECT_NEAR(params[0][0], 0.95f - 0.095f, 1e-6);
}

TEST(OptimizerTest, AdamFirstStepIsLrSized) {
  std::vector<std::vector<float>> params = {{0.0f}};
  std::vector<std::vector<float>> grads = {{0.3f}};
  AdamOptimizer adam;
  adam.Step(Views(params), ConstViews(grads), 0.01);
  // Bias-corrected first Adam step is ~lr * sign(g).
  EXPECT_NEAR(params[0][0], -0.01f, 1e-4);
}

TEST(OptimizerTest, AdamStateRoundTrip) {
  std::vector<std::vector<float>> params = {{1.0f, -1.0f}, {0.5f}};
  std::vector<std::vector<float>> grads = {{0.1f, 0.2f}, {-0.3f}};
  AdamOptimizer a;
  a.Step(Views(params), ConstViews(grads), 0.01);
  auto state = a.ExportState();

  AdamOptimizer b;
  b.ImportState(state);
  auto params_a = params;
  auto params_b = params;
  a.Step(Views(params_a), ConstViews(grads), 0.01);
  b.Step(Views(params_b), ConstViews(grads), 0.01);
  EXPECT_EQ(params_a, params_b);
}

TEST(OptimizerTest, HybridStepHasSgdMagnitude) {
  std::vector<std::vector<float>> params = {std::vector<float>(64, 1.0f)};
  std::vector<std::vector<float>> grads = {std::vector<float>(64, 0.0f)};
  Rng rng(4);
  for (auto& g : grads[0]) g = static_cast<float>(rng.Normal(0.0, 1.0));
  auto before = params;
  HybridAdamSgdOptimizer hybrid;
  hybrid.Step(Views(params), ConstViews(grads), 0.01);
  double step_norm = 0.0;
  double grad_norm = 0.0;
  for (std::size_t i = 0; i < 64; ++i) {
    const double d = params[0][i] - before[0][i];
    step_norm += d * d;
    grad_norm += double{grads[0][i]} * grads[0][i];
  }
  EXPECT_NEAR(std::sqrt(step_norm), 0.01 * std::sqrt(grad_norm), 1e-6);
}

TEST(OptimizerTest, OptimizersReduceQuadraticLoss) {
  // Minimize f(p) = ||p||^2 from a fixed start; all three optimizers should
  // make progress.
  for (const char* kind_cstr : {"sgd", "adam", "hybrid"}) {
    const std::string kind(kind_cstr);
    std::unique_ptr<Optimizer> opt;
    if (kind == "sgd") opt = std::make_unique<SgdOptimizer>();
    if (kind == "adam") opt = std::make_unique<AdamOptimizer>();
    if (kind == "hybrid") opt = std::make_unique<HybridAdamSgdOptimizer>();
    std::vector<std::vector<float>> params = {std::vector<float>(64, 2.0f)};
    for (int step = 0; step < 100; ++step) {
      std::vector<std::vector<float>> grads = {params[0]};  // df/dp = 2p ~ p
      opt->Step(Views(params), ConstViews(grads), 0.05);
    }
    double norm = 0.0;
    for (float p : params[0]) norm += double{p} * p;
    EXPECT_LT(std::sqrt(norm), 2.0) << kind;
  }
}

TEST(NanCheckTest, FindsNanAndInf) {
  std::vector<std::vector<float>> grads = {
      {1.0f, 2.0f},
      {std::nanf(""), 1.0f, std::numeric_limits<float>::infinity()}};
  auto report = CheckForNan(ConstViews(grads));
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].tensor_index, 1u);
  EXPECT_EQ(report.entries[0].element_index, 0u);
  EXPECT_EQ(report.entries[1].element_index, 2u);
  EXPECT_FALSE(report.Clean());
}

TEST(NanCheckTest, CleanGradients) {
  std::vector<std::vector<float>> grads = {{1.0f, -2.0f, 0.0f}};
  EXPECT_TRUE(CheckForNan(ConstViews(grads)).Clean());
}

// ------------------------------------------------------------ Checkpoint ---

Checkpoint MakeTestCheckpoint() {
  Checkpoint ckpt;
  ckpt.iteration = 1234;
  ckpt.learning_rate = 0.05;
  ckpt.parameters = {{1.0f, 2.0f, 3.0f}, {4.0f}};
  ckpt.optimizer_state = {{9.0f}, {0.5f, 0.25f}};
  return ckpt;
}

TEST(CheckpointTest, SerializeRoundTrip) {
  const Checkpoint ckpt = MakeTestCheckpoint();
  auto bytes = SerializeCheckpoint(ckpt);
  auto restored = DeserializeCheckpoint(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->iteration, 1234);
  EXPECT_DOUBLE_EQ(restored->learning_rate, 0.05);
  EXPECT_EQ(restored->parameters, ckpt.parameters);
  EXPECT_EQ(restored->optimizer_state, ckpt.optimizer_state);
}

TEST(CheckpointTest, DetectsCorruption) {
  auto bytes = SerializeCheckpoint(MakeTestCheckpoint());
  bytes[bytes.size() / 2] ^= 0xFF;
  auto restored = DeserializeCheckpoint(bytes);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointTest, DetectsTruncation) {
  auto bytes = SerializeCheckpoint(MakeTestCheckpoint());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeCheckpoint(bytes).ok());
}

TEST(CheckpointTest, RejectsBadMagic) {
  auto bytes = SerializeCheckpoint(MakeTestCheckpoint());
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeCheckpoint(bytes).ok());
}

TEST(CheckpointTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/aiacc_ckpt_test.bin";
  ASSERT_TRUE(SaveCheckpoint(MakeTestCheckpoint(), path).ok());
  auto restored = LoadCheckpoint(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->iteration, 1234);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto r = LoadCheckpoint("/nonexistent/path/ckpt.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, DirectoryPathIsDataLoss) {
  auto r = LoadCheckpoint(::testing::TempDir());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------- Config ---

TEST(ConfigTest, SpaceEnumeratesAllPoints) {
  CommConfigSpace space;
  const auto all = space.AllConfigs();
  EXPECT_EQ(all.size(), space.NumPoints());
  // Every (streams, granularity, algorithm) combination appears exactly once.
  std::set<std::string> seen;
  for (const auto& c : all) seen.insert(c.ToString());
  EXPECT_EQ(seen.size(), all.size());
}

TEST(ConfigTest, ToStringIsReadable) {
  CommConfig cfg;
  cfg.num_streams = 8;
  cfg.granularity_bytes = 8u << 20;
  EXPECT_NE(cfg.ToString().find("streams=8"), std::string::npos);
  EXPECT_NE(cfg.ToString().find("granularity=8MiB"), std::string::npos);
}

}  // namespace
}  // namespace aiacc::core
