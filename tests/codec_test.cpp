// Gradient-compression codec tests: exhaustive fp16/bf16 scalar roundtrips
// (NaN/Inf/denormal-safe), the branch-free casts against branchy reference
// conversions, cast wire packing at odd lengths, 1-bit and
// top-k wire-format units including malformed-record rejection, the
// error-feedback residual property, a ring bit-exactness matrix over
// codec x op x world x odd lengths x pipeline depth x channels, the
// chaos/reliable-transport composition, steady-state allocation checks,
// and end-to-end MLP training parity through the threaded engine under
// every codec family.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "compress/scalar.h"
#include "core/config.h"
#include "core/threaded_engine.h"
#include "dnn/mlp.h"
#include "dnn/zoo.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"

namespace aiacc {
namespace {

using compress::CodecKind;
using compress::CodecSpec;

bool IsNanHalf(std::uint16_t h) {
  return (h & 0x7C00u) == 0x7C00u && (h & 0x03FFu) != 0;
}
bool IsNanBf16(std::uint16_t b) {
  return (b & 0x7F80u) == 0x7F80u && (b & 0x007Fu) != 0;
}

// ------------------------------------------------------- scalar casts ----

// Reference conversions: the plain branchy case analysis of each format,
// written for reading rather than speed. The library's branch-free casts
// must match them bit for bit.
namespace reference {

std::uint16_t FloatToHalf(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::uint32_t exponent = (bits >> 23) & 0xFFu;
  std::uint32_t mantissa = bits & 0x7FFFFFu;
  if (exponent == 0xFF) {  // inf, or NaN with a quiet-bit payload
    return static_cast<std::uint16_t>(
        sign | 0x7C00u | (mantissa != 0 ? 0x200u : 0u));
  }
  const int new_exp = static_cast<int>(exponent) - 127 + 15;
  if (new_exp >= 0x1F) return static_cast<std::uint16_t>(sign | 0x7C00u);
  if (new_exp <= 0) {  // subnormal half, or underflow to zero
    if (new_exp < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000u;
    const int shift = 14 - new_exp;  // 14..24
    std::uint32_t half_mant = mantissa >> shift;
    const std::uint32_t remainder = mantissa & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (remainder > halfway ||
        (remainder == halfway && (half_mant & 1u) != 0)) {
      ++half_mant;  // may promote to the smallest normal, which is right
    }
    return static_cast<std::uint16_t>(sign | half_mant);
  }
  std::uint32_t half = sign | (static_cast<std::uint32_t>(new_exp) << 10) |
                       (mantissa >> 13);
  const std::uint32_t round_bit = mantissa & 0x1000u;
  const std::uint32_t sticky = mantissa & 0x0FFFu;
  if (round_bit && (sticky || (half & 1u))) ++half;  // may carry to inf
  return static_cast<std::uint16_t>(half);
}

float HalfToFloat(std::uint16_t half) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u)
                             << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1Fu;
  const std::uint32_t mantissa = half & 0x3FFu;
  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;
    } else {  // subnormal half -> normalized float
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      bits = sign | ((127 - 15 - e) << 23) | ((m & 0x3FFu) << 13);
    }
  } else if (exponent == 0x1F) {
    bits = sign | 0x7F800000u | (mantissa << 13);  // inf / NaN
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(bits);
}

std::uint16_t FloatToBf16(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  if ((bits & 0x7F800000u) == 0x7F800000u && (bits & 0x7FFFFFu) != 0) {
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);  // NaN
  }
  const std::uint32_t round_bit = bits & 0x8000u;
  const std::uint32_t sticky = bits & 0x7FFFu;
  std::uint32_t upper = bits >> 16;
  if (round_bit && (sticky || (upper & 1u))) ++upper;
  return static_cast<std::uint16_t>(upper);
}

}  // namespace reference

/// Float bit patterns that exercise every rounding decision: each sign and
/// exponent crossed with mantissas that sit on, next to and between the
/// rounding boundaries of every dropped-bit width (1..23 bits covers the
/// 13-bit fp16 normal case, the 14..24-bit fp16 subnormal shifts and the
/// 16-bit bf16 case), single-bit NaN payloads, and a stride over all 2^32.
std::vector<std::uint32_t> CastProbeFloats() {
  std::vector<std::uint32_t> mantissas;
  for (std::uint32_t shift = 1; shift <= 23; ++shift) {
    const std::uint32_t halfway = 1u << (shift - 1);
    const std::uint32_t kept_max = 0x7FFFFFu >> shift;
    for (const std::uint32_t kept :
         {0u, 1u, 2u, 3u, kept_max - 1, kept_max}) {
      for (const std::uint32_t dropped :
           {0u, 1u, halfway - 1, halfway, halfway + 1, 2 * halfway - 1}) {
        mantissas.push_back(((kept << shift) | dropped) & 0x7FFFFFu);
      }
    }
  }
  for (std::uint32_t b = 0; b < 23; ++b) mantissas.push_back(1u << b);
  mantissas.push_back(0x7FFFFFu);
  std::vector<std::uint32_t> out;
  for (std::uint32_t sign_exp = 0; sign_exp < 512; ++sign_exp) {
    for (const std::uint32_t m : mantissas) out.push_back((sign_exp << 23) | m);
  }
  for (std::uint64_t bits = 0; bits <= 0xFFFFFFFFull; bits += 65537) {
    out.push_back(static_cast<std::uint32_t>(bits));
  }
  return out;
}

TEST(ScalarCastTest, EncodeMatchesReferenceAtRoundingBoundaries) {
  int mismatches = 0;
  for (const std::uint32_t bits : CastProbeFloats()) {
    const float f = std::bit_cast<float>(bits);
    if (compress::FloatToHalf(f) != reference::FloatToHalf(f) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << "fp16 encode of 0x" << std::hex << bits << ": 0x"
                    << compress::FloatToHalf(f) << " want 0x"
                    << reference::FloatToHalf(f);
    }
    if (compress::FloatToBf16(f) != reference::FloatToBf16(f) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << "bf16 encode of 0x" << std::hex << bits << ": 0x"
                    << compress::FloatToBf16(f) << " want 0x"
                    << reference::FloatToBf16(f);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ScalarCastTest, DecodeMatchesReferenceExhaustively) {
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(compress::HalfToFloat(half)),
              std::bit_cast<std::uint32_t>(reference::HalfToFloat(half)))
        << "fp16 decode of 0x" << std::hex << h;
    // bf16 is the top half of a float: decoding is a shift.
    ASSERT_EQ(std::bit_cast<std::uint32_t>(compress::Bf16ToFloat(half)),
              h << 16)
        << "bf16 decode of 0x" << std::hex << h;
  }
}

// half -> float -> half is the identity for every non-NaN pattern
// (float32 represents every half exactly); NaN patterns must stay NaN with
// the sign preserved (the payload may be canonicalized).
TEST(ScalarCastTest, Fp16ExhaustiveRoundtrip) {
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    const float f = compress::HalfToFloat(half);
    const std::uint16_t back = compress::FloatToHalf(f);
    if (IsNanHalf(half)) {
      EXPECT_TRUE(std::isnan(f)) << "half 0x" << std::hex << h;
      EXPECT_TRUE(IsNanHalf(back)) << "half 0x" << std::hex << h;
      EXPECT_EQ(back & 0x8000u, half & 0x8000u) << "half 0x" << std::hex << h;
    } else {
      EXPECT_EQ(back, half) << "half 0x" << std::hex << h;
    }
  }
}

TEST(ScalarCastTest, Bf16ExhaustiveRoundtrip) {
  for (std::uint32_t b = 0; b <= 0xFFFFu; ++b) {
    const auto bf = static_cast<std::uint16_t>(b);
    const float f = compress::Bf16ToFloat(bf);
    const std::uint16_t back = compress::FloatToBf16(f);
    if (IsNanBf16(bf)) {
      EXPECT_TRUE(std::isnan(f)) << "bf16 0x" << std::hex << b;
      EXPECT_TRUE(IsNanBf16(back)) << "bf16 0x" << std::hex << b;
      EXPECT_EQ(back & 0x8000u, bf & 0x8000u) << "bf16 0x" << std::hex << b;
    } else {
      EXPECT_EQ(back, bf) << "bf16 0x" << std::hex << b;
    }
  }
}

TEST(ScalarCastTest, Fp16DirectedValues) {
  // Signed zero survives.
  EXPECT_EQ(compress::FloatToHalf(0.0f), 0x0000u);
  EXPECT_EQ(compress::FloatToHalf(-0.0f), 0x8000u);
  // Infinities survive; overflow saturates to infinity.
  EXPECT_EQ(compress::FloatToHalf(INFINITY), 0x7C00u);
  EXPECT_EQ(compress::FloatToHalf(-INFINITY), 0xFC00u);
  EXPECT_EQ(compress::FloatToHalf(65536.0f), 0x7C00u);
  EXPECT_EQ(compress::FloatToHalf(1e30f), 0x7C00u);
  // Largest finite half.
  EXPECT_EQ(compress::FloatToHalf(65504.0f), 0x7BFFu);
  // Subnormal halves roundtrip through float exactly (exhaustive test
  // covers them all; spot-check the smallest).
  EXPECT_EQ(compress::FloatToHalf(compress::HalfToFloat(0x0001u)), 0x0001u);
  // NaN stays NaN (payload may change, never becomes a number).
  EXPECT_TRUE(IsNanHalf(compress::FloatToHalf(std::nanf(""))));
}

TEST(ScalarCastTest, Bf16RoundsToNearestEven) {
  // upper even, round bit set, sticky clear -> ties to even (down).
  EXPECT_EQ(compress::FloatToBf16(std::bit_cast<float>(0x3F808000u)),
            0x3F80u);
  // upper odd, round bit set, sticky clear -> ties to even (up).
  EXPECT_EQ(compress::FloatToBf16(std::bit_cast<float>(0x3F818000u)),
            0x3F82u);
  // round bit set, sticky set -> always up.
  EXPECT_EQ(compress::FloatToBf16(std::bit_cast<float>(0x3F808001u)),
            0x3F81u);
  // round bit clear -> truncate.
  EXPECT_EQ(compress::FloatToBf16(std::bit_cast<float>(0x3F807FFFu)),
            0x3F80u);
  // Signed zero and infinities.
  EXPECT_EQ(compress::FloatToBf16(-0.0f), 0x8000u);
  EXPECT_EQ(compress::FloatToBf16(INFINITY), 0x7F80u);
  EXPECT_TRUE(IsNanBf16(compress::FloatToBf16(std::nanf(""))));
}

// ---------------------------------------------------- cast wire format ----

TEST(CastWireTest, RoundtripAtOddLengths) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}, std::size_t{8},
                              std::size_t{1023}}) {
    std::vector<float> src(n);
    Rng rng(static_cast<std::uint64_t>(n));
    for (float& x : src) x = static_cast<float>(rng.Uniform(-4.0, 4.0));
    for (const CodecKind kind : {CodecKind::kFp16, CodecKind::kBf16}) {
      std::vector<float> wire(compress::CastWireFloats(n), -1.0f);
      std::vector<float> out(n, -99.0f);
      compress::CastEncode(kind, src, wire);
      compress::CastDecode(kind, wire, out, n);
      for (std::size_t i = 0; i < n; ++i) {
        const float want =
            kind == CodecKind::kFp16
                ? compress::HalfToFloat(compress::FloatToHalf(src[i]))
                : compress::Bf16ToFloat(compress::FloatToBf16(src[i]));
        EXPECT_EQ(out[i], want) << "kind=" << static_cast<int>(kind)
                                << " n=" << n << " i=" << i;
      }
    }
  }
}

// ------------------------------------------------- sparse wire formats ----

TEST(SparseWireTest, OneBitEncodeDecode) {
  common::BufferPool pool;
  const std::vector<float> src = {2.0f, -1.0f, 0.0f, 4.0f, -3.0f};
  const CodecSpec spec{CodecKind::kOneBit};
  std::vector<float> wire(compress::MaxWireFloats(spec, src.size()));
  const std::size_t wn = compress::SparseEncode(spec, src, wire, pool);
  // Header (2) + one mask word for 5 elements.
  ASSERT_EQ(wn, 3u);
  const float pos_mean = wire[0];  // mean of {2, 4}
  const float neg_mean = wire[1];  // mean of {-1, 0, -3}
  EXPECT_FLOAT_EQ(pos_mean, 3.0f);
  EXPECT_FLOAT_EQ(neg_mean, -4.0f / 3.0f);
  std::vector<float> out(src.size(), 0.0f);
  ASSERT_TRUE(compress::SparseDecodeAccumulate(
                  spec, std::span<const float>(wire.data(), wn), out)
                  .ok());
  EXPECT_FLOAT_EQ(out[0], pos_mean);
  EXPECT_FLOAT_EQ(out[1], neg_mean);
  EXPECT_FLOAT_EQ(out[2], neg_mean);
  EXPECT_FLOAT_EQ(out[3], pos_mean);
  EXPECT_FLOAT_EQ(out[4], neg_mean);
  // Truncated record is rejected without touching dst.
  EXPECT_FALSE(compress::SparseDecodeAccumulate(
                   spec, std::span<const float>(wire.data(), wn - 1), out)
                   .ok());
}

TEST(SparseWireTest, TopKEncodeDecode) {
  common::BufferPool pool;
  std::vector<float> src(100, 0.0f);
  src[7] = 5.0f;
  src[42] = -9.0f;
  src[99] = 3.0f;
  const CodecSpec spec{CodecKind::kTopK, 0.03f};  // k = 3
  std::vector<float> wire(compress::MaxWireFloats(spec, src.size()));
  const std::size_t wn = compress::SparseEncode(spec, src, wire, pool);
  ASSERT_EQ(wn, 1u + 2u * 3u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[0]), 3u);
  // (index, value) pairs in ascending index order.
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[1]), 7u);
  EXPECT_FLOAT_EQ(wire[2], 5.0f);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[3]), 42u);
  EXPECT_FLOAT_EQ(wire[4], -9.0f);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[5]), 99u);
  EXPECT_FLOAT_EQ(wire[6], 3.0f);
  std::vector<float> out(src.size(), 0.0f);
  ASSERT_TRUE(compress::SparseDecodeAccumulate(
                  spec, std::span<const float>(wire.data(), wn), out)
                  .ok());
  EXPECT_EQ(out, src);
}

TEST(SparseWireTest, TopKTiesResolveByIndexOrder) {
  common::BufferPool pool;
  std::vector<float> src(10, 1.0f);  // every magnitude ties
  const CodecSpec spec{CodecKind::kTopK, 0.3f};  // k = 3
  std::vector<float> wire(compress::MaxWireFloats(spec, src.size()));
  const std::size_t wn = compress::SparseEncode(spec, src, wire, pool);
  ASSERT_EQ(wn, 7u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(wire[1 + 2 * i]),
              static_cast<std::uint32_t>(i));
  }
}

TEST(SparseWireTest, TopKRejectsMalformedRecords) {
  common::BufferPool pool;
  std::vector<float> src(16, 1.0f);
  const CodecSpec spec{CodecKind::kTopK, 0.25f};  // k = 4
  std::vector<float> wire(compress::MaxWireFloats(spec, src.size()));
  const std::size_t wn = compress::SparseEncode(spec, src, wire, pool);
  std::vector<float> out(src.size(), 0.0f);

  // Length does not match the header's k.
  EXPECT_FALSE(compress::SparseDecodeAccumulate(
                   spec, std::span<const float>(wire.data(), wn - 2), out)
                   .ok());
  // Out-of-range index.
  std::vector<float> bad(wire.begin(), wire.begin() + static_cast<long>(wn));
  bad[1] = std::bit_cast<float>(std::uint32_t{999});
  EXPECT_FALSE(
      compress::SparseDecodeAccumulate(spec, bad, out).ok());
  // Non-ascending (duplicate) index.
  bad.assign(wire.begin(), wire.begin() + static_cast<long>(wn));
  bad[3] = bad[1];
  EXPECT_FALSE(
      compress::SparseDecodeAccumulate(spec, bad, out).ok());
  // k larger than the destination.
  std::vector<float> tiny(2, 0.0f);
  EXPECT_FALSE(compress::SparseDecodeAccumulate(
                   spec, std::span<const float>(wire.data(), wn), tiny)
                   .ok());
  // Empty record.
  EXPECT_FALSE(compress::SparseDecodeAccumulate(
                   spec, std::span<const float>(), out)
                   .ok());
}

TEST(SparseWireTest, TopKCountClamps) {
  EXPECT_EQ(compress::TopKCount(0, 0.01f), 0u);
  EXPECT_EQ(compress::TopKCount(10, 0.0f), 1u);   // floor at 1
  EXPECT_EQ(compress::TopKCount(10, 1.0f), 10u);  // ceiling at n
  EXPECT_EQ(compress::TopKCount(1000, 0.01f), 10u);
}

// ------------------------------------------------------ error feedback ----

// With error feedback, the running average of the decoded (transmitted)
// gradients converges to the true gradient even though every single step is
// heavily quantized — the residual re-injects exactly what was dropped.
TEST(ErrorFeedbackTest, RunningAverageConvergesToTrueGradient) {
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kOneBit}, CodecSpec{CodecKind::kTopK, 0.05f}}) {
    common::BufferPool pool;
    const std::size_t n = 512;
    std::vector<float> g(n);
    Rng rng(7);
    for (float& x : g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    double g_norm = 0.0;
    for (float x : g) g_norm += static_cast<double>(x) * x;
    g_norm = std::sqrt(g_norm);

    std::vector<float> residual(n, 0.0f);
    std::vector<float> compensated(n);
    std::vector<double> sum_decoded(n, 0.0);
    std::vector<float> wire(compress::MaxWireFloats(spec, n));
    auto avg_error_after = [&](int steps, int start) {
      for (int t = start; t < steps; ++t) {
        for (std::size_t i = 0; i < n; ++i) {
          compensated[i] = g[i] + residual[i];
        }
        const std::size_t wn =
            compress::SparseEncode(spec, compensated, wire, pool);
        std::vector<float> decoded(n, 0.0f);
        EXPECT_TRUE(compress::SparseDecodeAccumulate(
                        spec, std::span<const float>(wire.data(), wn),
                        decoded)
                        .ok());
        for (std::size_t i = 0; i < n; ++i) {
          residual[i] = compensated[i] - decoded[i];
          sum_decoded[i] += static_cast<double>(decoded[i]);
        }
      }
      double err = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double d =
            sum_decoded[i] / steps - static_cast<double>(g[i]);
        err += d * d;
      }
      return std::sqrt(err) / g_norm;
    };
    auto residual_norm = [&] {
      double r2 = 0.0;
      for (float r : residual) r2 += static_cast<double>(r) * r;
      return std::sqrt(r2);
    };
    const double early = avg_error_after(5, 0);
    const double late = avg_error_after(100, 5);
    // The residual keeps what every step dropped, so the time-averaged
    // transmitted gradient closes in on the truth.
    EXPECT_LT(late, early * 0.5) << compress::ToString(spec);
    // And the residual saturates rather than growing without bound: after
    // it reaches steady state (top-k revisits every coordinate once per
    // ~n/k steps), another 100 steps barely move its norm.
    const double r_mid = residual_norm();
    avg_error_after(200, 100);
    EXPECT_LT(residual_norm(), 1.25 * r_mid + 1e-3 * g_norm)
        << compress::ToString(spec);
  }
}

// --------------------------------------------------- ring bit-exactness ----

/// All-reduce `data[r]` on every rank over a fresh transport; returns
/// per-rank results.
std::vector<std::vector<float>> RunRing(const CodecSpec& spec, int world,
                                        std::vector<std::vector<float>> data,
                                        collective::ReduceOp op, int depth,
                                        int channels = 1) {
  transport::InProcTransport tr(world);
  common::BufferPool pool;
  std::vector<std::thread> threads;
  std::vector<std::vector<float>> residuals(
      static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& vec = data[static_cast<std::size_t>(r)];
      collective::Comm comm{&tr, r, world, /*tag_base=*/1,
                            /*timeout_ms=*/20000, &pool, depth};
      comm.codec = spec;
      Status st;
      if (compress::IsSparse(spec.kind) && channels == 1) {
        auto& res = residuals[static_cast<std::size_t>(r)];
        res.assign(vec.size(), 0.0f);
        st = collective::CompressedAllReduce(comm, vec, op,
                                             std::span<float>(res));
      } else if (channels > 1) {
        st = collective::MultiChannelAllReduce(comm, vec, op, channels);
      } else {
        st = collective::RingAllReduce(comm, vec, op);
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
    });
  }
  for (auto& t : threads) t.join();
  return data;
}

std::vector<std::vector<float>> MakeRankData(int world, std::size_t len,
                                             std::uint64_t seed) {
  std::vector<std::vector<float>> data(static_cast<std::size_t>(world));
  Rng rng(seed);
  for (auto& v : data) {
    v.resize(len);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return data;
}

// Every codec, odd lengths, several worlds and depths: all replicas must be
// bit-identical, and the cast codecs must stay near the exact average.
TEST(RingCodecMatrixTest, ReplicasBitIdenticalAndCastAccurate) {
  const std::vector<CodecSpec> codecs = {
      CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kBf16},
      CodecSpec{CodecKind::kOneBit}, CodecSpec{CodecKind::kTopK, 0.1f}};
  for (const CodecSpec& spec : codecs) {
    for (const int world : {2, 3, 4}) {
      for (const std::size_t len :
           {std::size_t{1}, std::size_t{5}, std::size_t{63},
            std::size_t{130}}) {
        for (const int depth : {1, 4}) {
          const auto inputs = MakeRankData(
              world, len,
              1000 + static_cast<std::uint64_t>(world) * 10 + len);
          const auto out = RunRing(spec, world, inputs,
                                   collective::ReduceOp::kAvg, depth);
          for (int r = 1; r < world; ++r) {
            ASSERT_EQ(out[static_cast<std::size_t>(r)], out[0])
                << compress::ToString(spec) << " world=" << world
                << " len=" << len << " depth=" << depth << " rank=" << r;
          }
          if (compress::IsCast(spec.kind)) {
            const float tol =
                spec.kind == CodecKind::kFp16 ? 0.01f : 0.08f;
            for (std::size_t i = 0; i < len; ++i) {
              double exact = 0.0;
              for (int r = 0; r < world; ++r) {
                exact += static_cast<double>(
                    inputs[static_cast<std::size_t>(r)][i]);
              }
              exact /= world;
              EXPECT_NEAR(out[0][i], static_cast<float>(exact), tol)
                  << compress::ToString(spec) << " world=" << world
                  << " len=" << len << " depth=" << depth << " i=" << i;
            }
          }
        }
      }
    }
  }
}

// kSum must also hold (the engine retries use it via FinalizeAvg skipping).
TEST(RingCodecMatrixTest, SumOpBitIdentical) {
  const auto inputs = MakeRankData(3, 130, 99);
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kTopK, 0.1f}}) {
    const auto out =
        RunRing(spec, 3, inputs, collective::ReduceOp::kSum, 2);
    EXPECT_EQ(out[1], out[0]) << compress::ToString(spec);
    EXPECT_EQ(out[2], out[0]) << compress::ToString(spec);
  }
}

// Top-k with a shared sparse support (<= k per rank's union) is lossless:
// the all-reduce equals the exact average to fp32 rounding.
TEST(RingCodecMatrixTest, TopKLosslessOnSharedSparseSupport) {
  const int world = 4;
  const std::size_t len = 1000;
  std::vector<std::vector<float>> inputs(world);
  Rng rng(5);
  for (int r = 0; r < world; ++r) {
    inputs[static_cast<std::size_t>(r)].assign(len, 0.0f);
  }
  for (std::size_t i = 0; i < len; i += 125) {  // 8 hot rows, k = 10
    for (int r = 0; r < world; ++r) {
      inputs[static_cast<std::size_t>(r)][i] =
          static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  const auto out = RunRing(CodecSpec{CodecKind::kTopK, 0.01f}, world, inputs,
                           collective::ReduceOp::kAvg, 1);
  for (std::size_t i = 0; i < len; ++i) {
    double exact = 0.0;
    for (int r = 0; r < world; ++r) {
      exact += static_cast<double>(inputs[static_cast<std::size_t>(r)][i]);
    }
    EXPECT_NEAR(out[0][i], static_cast<float>(exact / world), 1e-6f) << i;
  }
}

// Codecs compose with the multi-channel splitter: every channel's sub-ring
// inherits the codec, replicas stay bit-identical.
TEST(RingCodecMatrixTest, MultiChannelComposition) {
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kTopK, 0.1f}}) {
    const auto inputs = MakeRankData(3, 4096, 21);
    const auto out = RunRing(spec, 3, inputs, collective::ReduceOp::kAvg,
                             /*depth=*/2, /*channels=*/2);
    EXPECT_EQ(out[1], out[0]) << compress::ToString(spec);
    EXPECT_EQ(out[2], out[0]) << compress::ToString(spec);
  }
}

// Codec wire formats survive the reliable layer over drop/dup/reorder/
// corrupt chaos: the result is bit-identical to a clean-transport run.
TEST(RingCodecMatrixTest, ChaosReliableComposition) {
  const int world = 3;
  const std::size_t len = 1024;
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kTopK, 0.05f}}) {
    auto run = [&](transport::Transport& tr) {
      auto data = MakeRankData(world, len, 321);
      common::BufferPool pool;
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          auto& vec = data[static_cast<std::size_t>(r)];
          collective::Comm comm{&tr, r, world, /*tag_base=*/1,
                                /*timeout_ms=*/20000, &pool, 2};
          comm.codec = spec;
          std::vector<float> res;
          Status st;
          if (compress::IsSparse(spec.kind)) {
            res.assign(len, 0.0f);
            st = collective::CompressedAllReduce(
                comm, vec, collective::ReduceOp::kAvg,
                std::span<float>(res));
          } else {
            st = collective::RingAllReduce(comm, vec,
                                           collective::ReduceOp::kAvg);
          }
          EXPECT_TRUE(st.ok()) << st.ToString();
        });
      }
      for (auto& t : threads) t.join();
      return data;
    };

    transport::InProcTransport clean(world);
    const auto ref = run(clean);

    transport::FaultSpec fault;
    fault.seed = 4242;
    fault.all_links.drop_prob = 0.03;
    fault.all_links.dup_prob = 0.03;
    fault.all_links.reorder_prob = 0.03;
    fault.all_links.corrupt_prob = 0.01;
    transport::InProcTransport inner(world);
    transport::FaultyTransport faulty(inner, fault);
    transport::ReliableTransport rel(faulty);
    const auto chaotic = run(rel);

    for (int r = 0; r < world; ++r) {
      ASSERT_EQ(chaotic[static_cast<std::size_t>(r)],
                ref[static_cast<std::size_t>(r)])
          << compress::ToString(spec) << " rank=" << r;
    }
  }
}

// After one warmup round, compressed collectives run entirely out of the
// buffer pool: no payload allocations, no pool misses. Each rank gets its
// own pool: with one shared pool, how many same-class buffers are live at
// once depends on how the two rank threads interleave, so a single warmup
// round may not reach the peak (top-k's full-length scratch is live on
// both ranks at once in some rounds and not in others).
TEST(RingCodecMatrixTest, ZeroSteadyStateAllocations) {
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kFp16}, CodecSpec{CodecKind::kTopK, 0.1f}}) {
    const int world = 2;
    const std::size_t len = 1000;
    transport::InProcTransport tr(world);
    std::vector<common::BufferPool> pools(world);
    auto misses = [&] {
      std::uint64_t total = 0;
      for (const auto& pool : pools) total += pool.stats().misses;
      return total;
    };
    auto round = [&] {
      auto data = MakeRankData(world, len, 77);
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          collective::Comm comm{&tr, r, world, /*tag_base=*/1,
                                /*timeout_ms=*/20000,
                                &pools[static_cast<std::size_t>(r)], 2};
          comm.codec = spec;
          auto& vec = data[static_cast<std::size_t>(r)];
          std::vector<float> res;
          Status st;
          if (compress::IsSparse(spec.kind)) {
            res.assign(len, 0.0f);
            st = collective::CompressedAllReduce(
                comm, vec, collective::ReduceOp::kAvg,
                std::span<float>(res));
          } else {
            st = collective::RingAllReduce(comm, vec,
                                           collective::ReduceOp::kAvg);
          }
          EXPECT_TRUE(st.ok()) << st.ToString();
        });
      }
      for (auto& t : threads) t.join();
    };
    round();  // warmup populates the pools' size classes
    const std::uint64_t misses0 = misses();
    for (int i = 0; i < 4; ++i) round();
    EXPECT_EQ(misses(), misses0) << compress::ToString(spec);
  }
}

// ------------------------------------------ engine end-to-end parity ----

constexpr int kIn = 6;
constexpr int kOut = 2;

dnn::Mlp TrainSequential(const dnn::SyntheticDataset& ds, int steps,
                         float lr) {
  dnn::Mlp model({kIn, 12, kOut}, 42);
  for (int s = 0; s < steps; ++s) {
    model.Forward(ds.inputs, ds.num_samples);
    model.Backward(ds.inputs, ds.targets, ds.num_samples);
    model.SgdStep(lr);
  }
  return model;
}

std::vector<std::unique_ptr<dnn::Mlp>> TrainDistributed(
    const dnn::SyntheticDataset& ds, int world, int steps, float lr,
    core::CommConfig config) {
  core::ThreadedAiaccEngine engine(world, config);
  const int shard = ds.num_samples / world;
  std::vector<std::unique_ptr<dnn::Mlp>> replicas(
      static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      auto model =
          std::make_unique<dnn::Mlp>(std::vector<int>{kIn, 12, kOut}, 42);
      auto grads = model->GradientTensors();
      for (std::size_t t = 0; t < grads.size(); ++t) {
        char name[32];
        std::snprintf(name, sizeof(name), "grad%03zu", t);
        ASSERT_TRUE(worker.Register(name, grads[t]).ok());
      }
      worker.Finalize();
      std::vector<float> x(ds.inputs.begin() + r * shard * kIn,
                           ds.inputs.begin() + (r + 1) * shard * kIn);
      std::vector<float> y(ds.targets.begin() + r * shard * kOut,
                           ds.targets.begin() + (r + 1) * shard * kOut);
      for (int s = 0; s < steps; ++s) {
        model->Forward(x, shard);
        model->Backward(x, y, shard);
        worker.PushAll();
        ASSERT_TRUE(worker.WaitIteration().ok());
        model->SgdStep(lr);
      }
      replicas[static_cast<std::size_t>(r)] = std::move(model);
    });
  }
  for (auto& t : threads) t.join();
  return replicas;
}

float LossOf(const dnn::Mlp& model, const dnn::SyntheticDataset& ds) {
  // Forward is const-incorrect for caching reasons; evaluate on a copy.
  dnn::Mlp copy = model;
  return dnn::Mlp::MseLoss(copy.Forward(ds.inputs, ds.num_samples),
                           ds.targets);
}

// fp16 wire: replicas stay bit-identical to each other, land near the fp32
// reference, and training matches the reference loss closely.
TEST(EngineCodecTest, Fp16ConvergenceParity) {
  const auto ds = dnn::MakeSyntheticDataset(32, kIn, kOut, 7);
  const dnn::Mlp reference = TrainSequential(ds, 8, 0.2f);
  core::CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 256;
  config.codec = CodecSpec{CodecKind::kFp16};
  const auto replicas = TrainDistributed(ds, 4, 8, 0.2f, config);
  for (std::size_t r = 1; r < replicas.size(); ++r) {
    EXPECT_TRUE(replicas[r]->ParametersEqual(*replicas[0], 0.0f))
        << "rank " << r << " diverged";
  }
  EXPECT_TRUE(replicas[0]->ParametersEqual(reference, 0.05f));
  const float ref_loss = LossOf(reference, ds);
  const float got_loss = LossOf(*replicas[0], ds);
  EXPECT_NEAR(got_loss, ref_loss, std::max(0.02f, 0.25f * ref_loss));
}

// Sparse codecs with error feedback: replicas stay bit-identical and the
// loss still goes down substantially (EF makes quantized SGD converge).
TEST(EngineCodecTest, SparseCodecsConvergeWithErrorFeedback) {
  const auto ds = dnn::MakeSyntheticDataset(32, kIn, kOut, 7);
  const float initial_loss =
      LossOf(dnn::Mlp({kIn, 12, kOut}, 42), ds);
  for (const CodecSpec spec :
       {CodecSpec{CodecKind::kOneBit}, CodecSpec{CodecKind::kTopK, 0.25f}}) {
    core::CommConfig config;
    config.num_streams = 2;
    config.granularity_bytes = 256;
    config.codec = spec;
    const auto replicas = TrainDistributed(ds, 4, 30, 0.1f, config);
    for (std::size_t r = 1; r < replicas.size(); ++r) {
      EXPECT_TRUE(replicas[r]->ParametersEqual(*replicas[0], 0.0f))
          << compress::ToString(spec) << " rank " << r << " diverged";
    }
    const float final_loss = LossOf(*replicas[0], ds);
    EXPECT_LT(final_loss, 0.5f * initial_loss) << compress::ToString(spec);
  }
}

}  // namespace
}  // namespace aiacc
