// Reduction operators shared by the threaded and simulated collectives.
//
// Accumulate/Absorb are the arithmetic inner loop of every reduce step, so
// they are written to vectorize: the source and destination are declared
// non-aliasing (`restrict` — a received payload and a caller tensor chunk
// are always distinct buffers) and the body is unrolled in fixed-width
// blocks, which lets the compiler emit straight-line SIMD with no runtime
// aliasing checks and no per-element branch.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "common/logging.h"

#if defined(_MSC_VER)
#define AIACC_RESTRICT __restrict
#else
#define AIACC_RESTRICT __restrict__
#endif

namespace aiacc::collective {

/// kBitAnd treats each float lane as an opaque 32-bit pattern and ANDs the
/// bits — the reduction behind bit-packed sync rounds, where one float
/// carries the readiness bits of 32 gradients and the all-reduce computes
/// their intersection across ranks. It is safe to route arbitrary bit
/// patterns (including NaN payloads) through the collectives: payloads are
/// only moved/copied in transit, and Accumulate is the sole place values
/// are touched.
enum class ReduceOp : std::uint8_t { kSum, kAvg, kMin, kMax, kBitAnd };

namespace detail {

/// a[i] = f(a[i], b[i]) over two non-overlapping arrays. The 8-wide body is
/// branch-free and alias-free, so it compiles to packed vector ops; the
/// scalar tail handles odd lengths and keeps every offset/alignment legal.
template <typename F>
inline void VectorApply(float* AIACC_RESTRICT a, const float* AIACC_RESTRICT b,
                        std::size_t n, F f) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    a[i + 0] = f(a[i + 0], b[i + 0]);
    a[i + 1] = f(a[i + 1], b[i + 1]);
    a[i + 2] = f(a[i + 2], b[i + 2]);
    a[i + 3] = f(a[i + 3], b[i + 3]);
    a[i + 4] = f(a[i + 4], b[i + 4]);
    a[i + 5] = f(a[i + 5], b[i + 5]);
    a[i + 6] = f(a[i + 6], b[i + 6]);
    a[i + 7] = f(a[i + 7], b[i + 7]);
  }
  for (; i < n; ++i) a[i] = f(a[i], b[i]);
}

}  // namespace detail

/// Calls `apply(f)` with the elementwise function of `op`: f(local,
/// incoming) for kMin/kMax keeps `local` unless `incoming` is strictly
/// smaller/larger, so the operand order decides which zero survives ±0.
template <typename Apply>
inline void WithReduceFn(ReduceOp op, Apply&& apply) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kAvg:
      apply([](float x, float y) { return x + y; });
      break;
    case ReduceOp::kMin:
      apply([](float x, float y) { return y < x ? y : x; });
      break;
    case ReduceOp::kMax:
      apply([](float x, float y) { return y > x ? y : x; });
      break;
    case ReduceOp::kBitAnd:
      apply([](float x, float y) {
        return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) &
                                    std::bit_cast<std::uint32_t>(y));
      });
      break;
  }
}

/// acc[i] = op(acc[i], in[i]). kAvg accumulates as a sum; callers divide by
/// world size at the end (FinalizeAvg). `acc` and `in` must not overlap.
inline void Accumulate(std::span<float> acc, std::span<const float> in,
                       ReduceOp op) {
  AIACC_CHECK(acc.size() == in.size());
  WithReduceFn(op, [&](auto f) {
    detail::VectorApply(acc.data(), in.data(), acc.size(), f);
  });
}

/// incoming[i] = op(local[i], incoming[i]): the ring's reduce step, folding
/// this rank's values into the partial it just received so the partial can
/// be forwarded as is. Same operand order as Accumulate(local, incoming),
/// so both give the same bits. The spans must not overlap.
inline void Absorb(std::span<float> incoming, std::span<const float> local,
                   ReduceOp op) {
  AIACC_CHECK(incoming.size() == local.size());
  WithReduceFn(op, [&](auto f) {
    detail::VectorApply(incoming.data(), local.data(), incoming.size(),
                        [f](float in, float mine) { return f(mine, in); });
  });
}

inline void FinalizeAvg(std::span<float> acc, int world_size, ReduceOp op) {
  if (op != ReduceOp::kAvg) return;
  const float inv = 1.0f / static_cast<float>(world_size);
  for (float& v : acc) v *= inv;
}

}  // namespace aiacc::collective
