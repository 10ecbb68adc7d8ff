#include "compress/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "compress/scalar.h"
#include "telemetry/metrics.h"

namespace aiacc::compress {
namespace {

/// Cached registry handles: the hot path pays one static-init guard check,
/// not a registry lookup per encode.
telemetry::Counter& RawFloatsCounter() {
  static telemetry::Counter& counter =
      telemetry::MetricsRegistry::Global().GetCounter("compress.raw_floats");
  return counter;
}

telemetry::Counter& WireFloatsCounter() {
  static telemetry::Counter& counter =
      telemetry::MetricsRegistry::Global().GetCounter("compress.wire_floats");
  return counter;
}

/// Pack `src` pairwise into 32-bit wire words: element 2i in the low 16
/// bits, 2i + 1 in the high 16, an odd tail paired with zero. Words are
/// assembled through uint32 + bit_cast — never type-punned — so the packing
/// is identical on every platform and survives any float-preserving
/// transport. One loop per scalar conversion, so the compiler sees a
/// branch-free body it can vectorize.
template <std::uint32_t (*Encode)(float) noexcept>
void PackCast(std::span<const float> src, std::span<float> dst) noexcept {
  const std::size_t n = src.size();
  const std::size_t pairs = n / 2;
  const float* in = src.data();
  float* out = dst.data();
  for (std::size_t i = 0; i < pairs; ++i) {
    out[i] = std::bit_cast<float>(Encode(in[2 * i]) |
                                  (Encode(in[2 * i + 1]) << 16));
  }
  if (n % 2 != 0) out[pairs] = std::bit_cast<float>(Encode(in[n - 1]));
}

/// Unpack `count` lanes of `src` through `Decode`.
template <float (*Decode)(std::uint16_t) noexcept>
void UnpackCast(std::span<const float> src, std::span<float> dst,
                std::size_t count) noexcept {
  const std::size_t pairs = count / 2;
  const float* in = src.data();
  float* out = dst.data();
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto word = std::bit_cast<std::uint32_t>(in[i]);
    out[2 * i] = Decode(static_cast<std::uint16_t>(word & 0xFFFFu));
    out[2 * i + 1] = Decode(static_cast<std::uint16_t>(word >> 16));
  }
  if (count % 2 != 0) {
    const auto word = std::bit_cast<std::uint32_t>(in[pairs]);
    out[count - 1] = Decode(static_cast<std::uint16_t>(word & 0xFFFFu));
  }
}

/// 1-bit wire layout: [pos_mean, neg_mean, mask words...].
constexpr std::size_t kOneBitHeader = 2;

constexpr std::size_t OneBitMaskWords(std::size_t n) noexcept {
  return (n + 31) / 32;
}

std::size_t OneBitEncode(std::span<const float> src, std::span<float> wire) {
  const std::size_t n = src.size();
  const std::size_t words = kOneBitHeader + OneBitMaskWords(n);
  double pos_sum = 0.0, neg_sum = 0.0;
  std::size_t pos_count = 0;
  for (std::size_t w = 0; w < OneBitMaskWords(n); ++w) {
    std::uint32_t mask = 0;
    const std::size_t base = w * 32;
    const std::size_t limit = std::min<std::size_t>(32, n - base);
    for (std::size_t b = 0; b < limit; ++b) {
      const float v = src[base + b];
      if (v > 0.0f) {
        mask |= (1u << b);
        pos_sum += v;
        ++pos_count;
      } else {
        neg_sum += v;
      }
    }
    wire[kOneBitHeader + w] = std::bit_cast<float>(mask);
  }
  const std::size_t neg_count = n - pos_count;
  wire[0] = pos_count > 0
                ? static_cast<float>(pos_sum / static_cast<double>(pos_count))
                : 0.0f;
  wire[1] = neg_count > 0
                ? static_cast<float>(neg_sum / static_cast<double>(neg_count))
                : 0.0f;
  return words;
}

Status OneBitDecodeAccumulate(std::span<const float> wire,
                              std::span<float> dst) noexcept {
  const std::size_t n = dst.size();
  if (wire.size() != kOneBitHeader + OneBitMaskWords(n)) {
    return InvalidArgument("1-bit record length mismatch");
  }
  const float pos_mean = wire[0];
  const float neg_mean = wire[1];
  for (std::size_t w = 0; w < OneBitMaskWords(n); ++w) {
    const auto mask = std::bit_cast<std::uint32_t>(wire[kOneBitHeader + w]);
    const std::size_t base = w * 32;
    const std::size_t limit = std::min<std::size_t>(32, n - base);
    for (std::size_t b = 0; b < limit; ++b) {
      dst[base + b] += (mask & (1u << b)) ? pos_mean : neg_mean;
    }
  }
  return Status::Ok();
}

/// top-k wire layout: [bit_cast count, (bit_cast index, value) * k].
std::size_t TopKEncode(const CodecSpec& spec, std::span<const float> src,
                       std::span<float> wire, common::BufferPool& pool) {
  const std::size_t n = src.size();
  const std::size_t k = TopKCount(n, spec.topk_ratio);
  wire[0] = std::bit_cast<float>(static_cast<std::uint32_t>(k));
  if (k == 0) return 1;

  // Find the k-th largest magnitude via a pooled partial sort, then select
  // in ascending index order: every |v| strictly above the threshold, plus
  // enough threshold-ties (taken in index order) to reach exactly k. This
  // keeps the selection deterministic and the wire indices ascending.
  auto scratch = pool.Acquire(n);
  for (std::size_t i = 0; i < n; ++i) scratch[i] = std::fabs(src[i]);
  std::nth_element(scratch.begin(), scratch.begin() + (k - 1), scratch.end(),
                   std::greater<float>());
  const float threshold = scratch[k - 1];
  std::size_t above = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::fabs(src[i]) > threshold) ++above;
  }
  pool.Release(std::move(scratch));

  std::size_t ties_allowed = k - above;
  std::size_t out = 1;
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < n && emitted < k; ++i) {
    const float mag = std::fabs(src[i]);
    bool keep = mag > threshold;
    if (!keep && mag == threshold && ties_allowed > 0) {
      keep = true;
      --ties_allowed;
    }
    if (keep) {
      wire[out++] = std::bit_cast<float>(static_cast<std::uint32_t>(i));
      wire[out++] = src[i];
      ++emitted;
    }
  }
  return out;
}

Status TopKDecodeAccumulate(std::span<const float> wire,
                            std::span<float> dst) noexcept {
  if (wire.empty()) return InvalidArgument("top-k record missing header");
  const auto k = std::bit_cast<std::uint32_t>(wire[0]);
  if (wire.size() != 1 + 2 * static_cast<std::size_t>(k)) {
    return InvalidArgument("top-k record length mismatch");
  }
  if (k > dst.size()) {
    return InvalidArgument("top-k record keeps more elements than the tensor");
  }
  std::uint32_t prev_index = 0;
  for (std::uint32_t j = 0; j < k; ++j) {
    const auto index = std::bit_cast<std::uint32_t>(wire[1 + 2 * j]);
    if (index >= dst.size()) {
      return InvalidArgument("top-k record index out of range");
    }
    if (j > 0 && index <= prev_index) {
      return InvalidArgument("top-k record indices not strictly ascending");
    }
    prev_index = index;
    dst[index] += wire[2 + 2 * j];
  }
  return Status::Ok();
}

}  // namespace

std::string_view ToString(CodecKind kind) noexcept {
  switch (kind) {
    case CodecKind::kNone:
      return "none";
    case CodecKind::kFp16:
      return "fp16";
    case CodecKind::kBf16:
      return "bf16";
    case CodecKind::kOneBit:
      return "onebit";
    case CodecKind::kTopK:
      return "topk";
  }
  return "unknown";
}

std::string ToString(const CodecSpec& spec) {
  std::string out{ToString(spec.kind)};
  if (spec.kind == CodecKind::kTopK) {
    out += "@";
    out += std::to_string(spec.topk_ratio);
  }
  return out;
}

std::size_t TopKCount(std::size_t n, float ratio) noexcept {
  if (n == 0) return 0;
  const double want = std::round(static_cast<double>(ratio) *
                                 static_cast<double>(n));
  const auto k = want < 1.0 ? std::size_t{1} : static_cast<std::size_t>(want);
  return std::min(k, n);
}

std::size_t MaxWireFloats(const CodecSpec& spec, std::size_t n) noexcept {
  switch (spec.kind) {
    case CodecKind::kNone:
      return n;
    case CodecKind::kFp16:
    case CodecKind::kBf16:
      return CastWireFloats(n);
    case CodecKind::kOneBit:
      return kOneBitHeader + OneBitMaskWords(n);
    case CodecKind::kTopK:
      return 1 + 2 * TopKCount(n, spec.topk_ratio);
  }
  return n;
}

void CastEncode(CodecKind kind, std::span<const float> src,
                std::span<float> dst) noexcept {
  if (kind == CodecKind::kFp16) {
    PackCast<FloatToHalfBits>(src, dst);
  } else {
    PackCast<FloatToBf16Bits>(src, dst);
  }
}

void CastDecode(CodecKind kind, std::span<const float> src,
                std::span<float> dst, std::size_t count) noexcept {
  if (kind == CodecKind::kFp16) {
    UnpackCast<HalfToFloat>(src, dst, count);
  } else {
    UnpackCast<Bf16ToFloat>(src, dst, count);
  }
}

std::size_t SparseEncode(const CodecSpec& spec, std::span<const float> src,
                         std::span<float> wire, common::BufferPool& pool) {
  switch (spec.kind) {
    case CodecKind::kOneBit:
      return OneBitEncode(src, wire);
    case CodecKind::kTopK:
      return TopKEncode(spec, src, wire, pool);
    default:
      break;
  }
  return 0;
}

Status SparseDecodeAccumulate(const CodecSpec& spec,
                              std::span<const float> wire,
                              std::span<float> dst) noexcept {
  switch (spec.kind) {
    case CodecKind::kOneBit:
      return OneBitDecodeAccumulate(wire, dst);
    case CodecKind::kTopK:
      return TopKDecodeAccumulate(wire, dst);
    default:
      break;
  }
  return InvalidArgument("not a sparse codec");
}

void RecordWireFootprint(std::size_t raw_floats,
                         std::size_t wire_floats) noexcept {
  RawFloatsCounter().Add(raw_floats);
  WireFloatsCounter().Add(wire_floats);
}

}  // namespace aiacc::compress
