// Gradient compression codecs for the collective wire path.
//
// Two codec families with different fusion points:
//
//  * Cast codecs (fp16 / bf16) are *dense* and element-wise, so they fuse
//    directly into the sliced ring pipeline: each hop ships a slice as two
//    16-bit lanes packed per 32-bit float word (`CastWireFloats(n)` words on
//    the wire), the receiver decodes into pooled scratch, reduces, and
//    re-encodes before forwarding. Halved bytes per hop, same message count.
//
//  * Sparse codecs (1-bit sign quantization, top-k) change the wire format
//    shape (variable length, header + payload), so they take a dedicated
//    all-gather style collective (`collective::CompressedAllReduce`): every
//    rank encodes its compensated gradient once, the n compressed records
//    circulate around the ring, and every rank decode-accumulates them in
//    rank order 0..n-1 so replicas stay bit-identical. Both sparse codecs
//    carry per-tensor error-feedback residuals (Dryden et al. 2016): the
//    quantization error of this step is added back into the next step's
//    gradient, which is what makes 1-bit/top-k SGD converge.
//
// Wire formats (all lanes are 32-bit float words; 16-bit values are packed
// two per word via bit_cast, never type-punned):
//
//   fp16/bf16:  ceil(n/2) words, element 2i in the low 16 bits of word i,
//               element 2i+1 in the high 16 bits. No header: the decoded
//               length is supplied by the caller (slice sizes are part of
//               the collective's deterministic schedule).
//   1-bit:      [pos_mean, neg_mean] + ceil(n/32) sign-mask words.
//               Element i decodes to pos_mean when bit (i%32) of mask word
//               i/32 is set, neg_mean otherwise. The means are the average
//               positive / non-positive magnitudes of the encoded tensor.
//   top-k:      [bit_cast<float>(uint32 k)] + k (bit_cast index, value)
//               pairs in ascending index order. k = clamp(round(ratio*n),
//               1, n); ties at the k-th largest magnitude are broken by
//               index order, so the selection is deterministic.
//
// All scratch is acquired from a common::BufferPool — the codec layer
// preserves the repo's zero-steady-state-allocation guarantee (the
// analyzer's hot-path-alloc check covers this directory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/buffer_pool.h"
#include "common/status.h"

namespace aiacc::compress {

enum class CodecKind : std::uint8_t {
  kNone = 0,   // raw fp32, the pre-codec wire format
  kFp16 = 1,   // IEEE binary16 cast, fused per ring hop
  kBf16 = 2,   // bfloat16 cast, fused per ring hop
  kOneBit = 3, // 1-bit sign quantization + error feedback, sparse collective
  kTopK = 4,   // top-k magnitude sparsification + error feedback
};

/// Per-tensor codec choice. `topk_ratio` is the fraction of elements kept by
/// kTopK (ignored by the other kinds, kept at its default so equality and
/// serialization stay well-defined).
struct CodecSpec {
  CodecKind kind = CodecKind::kNone;
  float topk_ratio = 0.01f;

  friend bool operator==(const CodecSpec& a, const CodecSpec& b) noexcept {
    return a.kind == b.kind &&
           (a.kind != CodecKind::kTopK || a.topk_ratio == b.topk_ratio);
  }
  friend bool operator!=(const CodecSpec& a, const CodecSpec& b) noexcept {
    return !(a == b);
  }
};

[[nodiscard]] std::string_view ToString(CodecKind kind) noexcept;
[[nodiscard]] std::string ToString(const CodecSpec& spec);

/// Cast codecs ship dense 16-bit lanes through the regular ring phases.
[[nodiscard]] constexpr bool IsCast(CodecKind kind) noexcept {
  return kind == CodecKind::kFp16 || kind == CodecKind::kBf16;
}

/// Sparse codecs need the CompressedAllReduce collective (variable-length
/// records, decode-accumulate semantics).
[[nodiscard]] constexpr bool IsSparse(CodecKind kind) noexcept {
  return kind == CodecKind::kOneBit || kind == CodecKind::kTopK;
}

/// Sparse codecs are lossy in a way that requires error-feedback residuals
/// to converge; cast codecs round once per hop and do not accumulate error.
[[nodiscard]] constexpr bool UsesErrorFeedback(CodecKind kind) noexcept {
  return IsSparse(kind);
}

/// Wire words for a cast-encoded span of `n` floats: two 16-bit lanes per
/// 32-bit word.
[[nodiscard]] constexpr std::size_t CastWireFloats(std::size_t n) noexcept {
  return (n + 1) / 2;
}

/// Number of kept elements for a top-k encode of `n` floats.
[[nodiscard]] std::size_t TopKCount(std::size_t n, float ratio) noexcept;

/// Upper bound on the wire words any encode of `n` floats with `spec` can
/// produce — callers size pooled scratch with this.
[[nodiscard]] std::size_t MaxWireFloats(const CodecSpec& spec,
                                        std::size_t n) noexcept;

/// Encode `src` as packed 16-bit lanes into `dst` (size >=
/// CastWireFloats(src.size())). `kind` must be a cast codec.
void CastEncode(CodecKind kind, std::span<const float> src,
                std::span<float> dst) noexcept;

/// Decode `CastWireFloats(count)` packed words from `src` into the first
/// `count` elements of `dst`. `kind` must be a cast codec.
void CastDecode(CodecKind kind, std::span<const float> src,
                std::span<float> dst, std::size_t count) noexcept;

/// Encode `src` with a sparse codec into `wire` (sized via MaxWireFloats).
/// Returns the number of wire words actually written. `pool` provides
/// scratch for the top-k magnitude partition (returned before exit).
[[nodiscard]] std::size_t SparseEncode(const CodecSpec& spec,
                                       std::span<const float> src,
                                       std::span<float> wire,
                                       common::BufferPool& pool);

/// Decode a sparse record and *add* its contribution into `dst` (which the
/// caller zeroed or pre-seeded). Validates the record against dst.size();
/// malformed records (bad length, out-of-range index) return an error
/// without touching any out-of-range memory.
[[nodiscard]] Status SparseDecodeAccumulate(const CodecSpec& spec,
                                            std::span<const float> wire,
                                            std::span<float> dst) noexcept;

/// Telemetry: record raw vs wire footprint of one encode so benches can
/// report the end-to-end compression ratio (`compress.raw_floats` /
/// `compress.wire_floats` counters).
void RecordWireFootprint(std::size_t raw_floats,
                         std::size_t wire_floats) noexcept;

}  // namespace aiacc::compress
