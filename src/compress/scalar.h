// Scalar 16-bit float conversions for the gradient codec layer: IEEE 754
// binary16 ("fp16") and bfloat16 ("bf16"). Both round to nearest even and
// handle every edge case without undefined behaviour: subnormals round
// correctly, overflow saturates to infinity, and NaNs keep their sign and
// gain a quiet bit so a payload that truncates to zero can never turn into
// an infinity. This is the repo's only fp16 implementation: the cast
// codecs, the Perseus fp16 all-reduce and the tests all quantize through it.
//
// The conversions are branch-free: every case (subnormal, normal, inf/NaN)
// is computed and the right one selected, using only integer adds and
// shifts plus exact float arithmetic. Inline and free of branches, the
// CastEncode/CastDecode loops vectorize at the baseline ISA (no intrinsics,
// no -march, no runtime dispatch). They rely on the default floating-point
// environment: round to nearest even, subnormals neither flushed nor
// treated as zero. tests/codec_test.cpp checks them against straightforward
// branchy reference conversions.
#pragma once

#include <bit>
#include <cstdint>

namespace aiacc::compress {
namespace scalar_detail {

/// `pick ? a : b` as mask arithmetic. GCC will not if-convert a ternary
/// whose other arm holds a float add (it may trap), so a plain ternary
/// keeps a branch in the loop and blocks vectorization.
inline std::uint32_t Select(bool pick, std::uint32_t a,
                            std::uint32_t b) noexcept {
  const std::uint32_t mask = 0u - static_cast<std::uint32_t>(pick);
  return (a & mask) | (b & ~mask);
}

}  // namespace scalar_detail

/// FloatToHalf's bit pattern, zero-extended to 32 bits. The cast codec
/// packs these two to a word: keeping every lane 32 bits wide spares the
/// vectorized loop a narrow-then-widen round trip that halves its speed.
inline std::uint32_t FloatToHalfBits(float value) noexcept {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = bits & 0x80000000u;
  // |value| as bits; below 2^31, so signed compares are exact (and cheap
  // in SIMD, which has no unsigned compare at the baseline ISA).
  const auto abs = static_cast<std::int32_t>(bits ^ sign);
  // Subnormal half or zero (|value| < 2^-14): adding 0.5f lines the ten
  // half mantissa bits up with the bottom of the float mantissa, and the
  // float adder rounds the dropped bits to nearest even.
  const std::uint32_t subnormal =
      std::bit_cast<std::uint32_t>(std::bit_cast<float>(abs) + 0.5f) -
      0x3F000000u;
  // Normal half: re-bias the exponent (127 -> 15) and add 0xFFF plus the
  // kept mantissa's low bit, so the shift below rounds to nearest even. A
  // carry out of the mantissa bumps the exponent, up to infinity.
  const std::uint32_t normal =
      (static_cast<std::uint32_t>(abs) + 0xC8000FFFu +
       ((static_cast<std::uint32_t>(abs) >> 13) & 1u)) >>
      13;
  // |value| >= 65536 (2^16): infinity, or a quiet NaN for a NaN.
  const std::uint32_t special = abs > 0x7F800000 ? 0x7E00u : 0x7C00u;
  std::uint32_t half = scalar_detail::Select(abs < 0x38800000, subnormal,
                                             normal);
  half = scalar_detail::Select(abs >= 0x47800000, special, half);
  return half | (sign >> 16);
}

/// float -> IEEE 754 binary16 (round to nearest even; overflow -> inf).
inline std::uint16_t FloatToHalf(float value) noexcept {
  return static_cast<std::uint16_t>(FloatToHalfBits(value));
}

/// IEEE 754 binary16 -> float (exact, NaN payloads included).
inline float HalfToFloat(std::uint16_t half) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u)
                             << 16;
  const auto magnitude = static_cast<std::int32_t>(half & 0x7FFFu);
  // Normal half: shift into place and re-bias the exponent (15 -> 127);
  // inf/NaN (exponent 31) re-bias once more, to exponent 255.
  std::uint32_t bits = (static_cast<std::uint32_t>(magnitude) << 13) +
                       0x38000000u;
  bits += scalar_detail::Select(magnitude >= 0x7C00, 0x38000000u, 0u);
  // Subnormal half or zero: the mantissa times 2^-24, exact in float.
  const std::uint32_t subnormal = std::bit_cast<std::uint32_t>(
      static_cast<float>(magnitude) * 0x1p-24f);
  bits = scalar_detail::Select(magnitude < 0x400, subnormal, bits);
  return std::bit_cast<float>(bits | sign);
}

/// FloatToBf16's bit pattern, zero-extended to 32 bits (see
/// FloatToHalfBits).
inline std::uint32_t FloatToBf16Bits(float value) noexcept {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  // Round to nearest even: 0x7FFF plus the kept low bit carries into the
  // kept half exactly when the dropped half is above the tie, or at the
  // tie with an odd kept half. The carry may reach the exponent, which is
  // IEEE behaviour (the largest finite values round to inf).
  const std::uint32_t rounded = (bits + 0x7FFFu + ((bits >> 16) & 1u)) >> 16;
  // NaN: keep the sign and top payload bits and force the quiet bit, so a
  // payload living only in the dropped bits cannot truncate into an inf.
  const std::uint32_t quiet_nan = (bits >> 16) | 0x0040u;
  const bool nan = static_cast<std::int32_t>(bits & 0x7FFFFFFFu) > 0x7F800000;
  return scalar_detail::Select(nan, quiet_nan, rounded);
}

/// float -> bfloat16 (round to nearest even on the dropped 16 mantissa
/// bits; overflow -> inf; NaN keeps sign + quiet bit).
inline std::uint16_t FloatToBf16(float value) noexcept {
  return static_cast<std::uint16_t>(FloatToBf16Bits(value));
}

/// bfloat16 -> float (exact: bf16 is the top half of a float).
inline float Bf16ToFloat(std::uint16_t b) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(b) << 16);
}

/// Largest relative error binary16 introduces for normal values (2^-11).
inline constexpr float kHalfRelativeError = 1.0f / 2048.0f;
/// Largest relative error bfloat16 introduces for normal values (2^-8).
inline constexpr float kBf16RelativeError = 1.0f / 256.0f;

}  // namespace aiacc::compress
