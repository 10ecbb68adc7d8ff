#include "telemetry/trace_context.h"

#include "common/serialize.h"

namespace aiacc::telemetry {
namespace {

constexpr std::uint64_t kLimb = 1ULL << 16;

}  // namespace

void WriteStamp(float* lanes, const TraceStamp& stamp) noexcept {
  lanes[0] = static_cast<float>(kStampMagic);
  lanes[1] = static_cast<float>(stamp.origin);
  lanes[2] = static_cast<float>(stamp.msg_id >> 16);
  lanes[3] = static_cast<float>(stamp.msg_id & 0xFFFFu);
}

std::optional<TraceStamp> ParseStamp(const float* lanes) noexcept {
  const auto magic = IntLane(lanes[0], 1ULL << 24);
  if (!magic.has_value() || *magic != kStampMagic) return std::nullopt;
  const auto origin = IntLane(lanes[1], kLimb);
  const auto id_hi = IntLane(lanes[2], kLimb);
  const auto id_lo = IntLane(lanes[3], kLimb);
  if (!origin || !id_hi || !id_lo) return std::nullopt;
  TraceStamp stamp;
  stamp.origin = static_cast<int>(*origin);
  stamp.msg_id = static_cast<std::uint32_t>((*id_hi << 16) | *id_lo);
  return stamp;
}

std::optional<TraceStamp> StripStamp(std::vector<float>& frame) {
  if (frame.size() < kStampLanes) return std::nullopt;
  const auto stamp = ParseStamp(frame.data() + frame.size() - kStampLanes);
  if (!stamp.has_value()) return std::nullopt;
  frame.resize(frame.size() - kStampLanes);  // shrink, never reallocates
  return stamp;
}

}  // namespace aiacc::telemetry
