// Scalar 16-bit float conversions for the gradient codec layer: IEEE 754
// binary16 ("fp16") and bfloat16 ("bf16"). Both round to nearest even and
// handle every edge case without undefined behaviour: subnormals round
// correctly, overflow saturates to infinity, and NaNs keep their sign and
// gain a quiet bit so a payload that truncates to zero can never turn into
// an infinity. This is the repo's only fp16 implementation: the cast
// codecs, the Perseus fp16 all-reduce and the tests all quantize through it.
#pragma once

#include <cstdint>

namespace aiacc::compress {

/// float -> IEEE 754 binary16 (round to nearest even; overflow -> inf).
std::uint16_t FloatToHalf(float value) noexcept;

/// IEEE 754 binary16 -> float (exact).
float HalfToFloat(std::uint16_t half) noexcept;

/// float -> bfloat16 (round to nearest even on the dropped 16 mantissa
/// bits; overflow -> inf; NaN keeps sign + quiet bit).
std::uint16_t FloatToBf16(float value) noexcept;

/// bfloat16 -> float (exact: bf16 is the top half of a float).
float Bf16ToFloat(std::uint16_t b) noexcept;

/// Largest relative error binary16 introduces for normal values (2^-11).
inline constexpr float kHalfRelativeError = 1.0f / 2048.0f;
/// Largest relative error bfloat16 introduces for normal values (2^-8).
inline constexpr float kBf16RelativeError = 1.0f / 256.0f;

}  // namespace aiacc::compress
