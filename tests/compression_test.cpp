// IEEE binary16 scalar cast tests beyond the exhaustive half->float->half
// roundtrip in codec_test: float->half bit patterns, rounding mode,
// overflow, subnormal flush, property sweeps, and the end-to-end fp16-wire
// training check.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "compress/scalar.h"
#include "core/perseus.h"
#include "dnn/mlp.h"

namespace aiacc::core {
namespace {

using compress::FloatToHalf;
using compress::HalfToFloat;
using compress::kHalfRelativeError;

TEST(HalfCodecTest, KnownBitPatterns) {
  EXPECT_EQ(FloatToHalf(0.0f), 0x0000);
  EXPECT_EQ(FloatToHalf(-0.0f), 0x8000);
  EXPECT_EQ(FloatToHalf(1.0f), 0x3C00);
  EXPECT_EQ(FloatToHalf(-2.0f), 0xC000);
  EXPECT_EQ(FloatToHalf(65504.0f), 0x7BFF);
  EXPECT_EQ(HalfToFloat(0x3C00), 1.0f);
  EXPECT_EQ(HalfToFloat(0x7C00), std::numeric_limits<float>::infinity());
}

TEST(HalfCodecTest, OverflowBecomesInfinity) {
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(1e6f))));
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(-1e6f))));
  EXPECT_LT(HalfToFloat(FloatToHalf(-1e6f)), 0.0f);
}

TEST(HalfCodecTest, SubnormalsRoundTrip) {
  // Smallest positive subnormal half = 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(HalfToFloat(FloatToHalf(tiny)), tiny);
  // Below half of the smallest subnormal -> flush to zero.
  EXPECT_EQ(HalfToFloat(FloatToHalf(std::ldexp(1.0f, -26))), 0.0f);
  // Largest subnormal half.
  const float big_sub = std::ldexp(1023.0f, -24);
  EXPECT_EQ(HalfToFloat(FloatToHalf(big_sub)), big_sub);
}

TEST(HalfCodecTest, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1 + 2^-10):
  // ties go to even (mantissa ...0), i.e. 1.0.
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_EQ(HalfToFloat(FloatToHalf(halfway)), 1.0f);
  // Just above the halfway point rounds up.
  const float above = 1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -13);
  EXPECT_EQ(HalfToFloat(FloatToHalf(above)), 1.0f + std::ldexp(1.0f, -10));
}

TEST(HalfCodecTest, RelativeErrorBoundProperty) {
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    const float v = static_cast<float>(rng.Uniform(-100.0, 100.0));
    const float rt = HalfToFloat(FloatToHalf(v));
    if (std::fabs(v) > 1e-3f) {
      EXPECT_LE(std::fabs(rt - v), std::fabs(v) * kHalfRelativeError * 1.01f)
          << v;
    }
  }
}

TEST(HalfCodecTest, MonotonicOnSamples) {
  // Quantization must preserve order.
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const float a = static_cast<float>(rng.Uniform(-50.0, 50.0));
    const float b = static_cast<float>(rng.Uniform(-50.0, 50.0));
    const float qa = HalfToFloat(FloatToHalf(a));
    const float qb = HalfToFloat(FloatToHalf(b));
    if (a < b) EXPECT_LE(qa, qb);
  }
}

TEST(Fp16WireTest, DistributedTrainingStillConverges) {
  // End-to-end: data-parallel training with fp16 gradient wire compression
  // must still reduce the loss (quantization noise is tolerable).
  const int world = 4;
  const auto ds = dnn::MakeSyntheticDataset(32, 6, 2, 13);
  const int shard = ds.num_samples / world;
  std::vector<float> final_loss(world, -1.0f);
  perseus::RunRanks(world, [&](perseus::Session& session) {
    dnn::Mlp model({6, 12, 2}, 42);
    const int rank = session.rank();
    std::vector<float> x(ds.inputs.begin() + rank * shard * 6,
                         ds.inputs.begin() + (rank + 1) * shard * 6);
    std::vector<float> y(ds.targets.begin() + rank * shard * 2,
                         ds.targets.begin() + (rank + 1) * shard * 2);
    float first = 0.0f;
    for (int s = 0; s < 60; ++s) {
      auto pred = model.Forward(x, shard);
      if (s == 0) first = dnn::Mlp::MseLoss(pred, y);
      model.Backward(x, y, shard);
      for (auto g : model.GradientTensors()) {
        session.AllReduceFp16(g, /*num_channels=*/2);
      }
      model.SgdStep(0.3f);
    }
    const float last = dnn::Mlp::MseLoss(model.Forward(x, shard), y);
    EXPECT_LT(last, first * 0.5f) << "rank " << rank;
    // Evaluate on the *full* dataset so replicas are comparable: identical
    // parameters must give identical full-data loss.
    final_loss[static_cast<std::size_t>(rank)] = dnn::Mlp::MseLoss(
        model.Forward(ds.inputs, ds.num_samples), ds.targets);
  });
  // All replicas agree (they quantized identically).
  for (int r = 1; r < world; ++r) {
    EXPECT_EQ(final_loss[static_cast<std::size_t>(r)], final_loss[0]);
  }
}

}  // namespace
}  // namespace aiacc::core
