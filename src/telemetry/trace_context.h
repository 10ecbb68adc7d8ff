// Wire-level trace context: the compact stamp the tracing transport
// appends to every frame so a recv on one rank can be causally bound to
// the send that produced it on another (DESIGN.md §7 "Causal tracing").
//
// The stamp is a *trailer* of float lanes after the body, like the
// kind/seq/CRC trailer of transport/reliable.{h,cpp}: every lane holds a
// small non-negative integer that is exactly representable as a float
// (ints < 2^24 are exact; the 32-bit message id is split into 16-bit
// limbs). A trailer — rather than a header — keeps body lane indices
// unchanged for every layer below and strips with a resize. Because the
// tracing decorator is the *topmost* layer of the stack (inproc -> faulty
// -> reliable -> tracing), the stamp sits just before the reliable trailer
// on the wire, and the reliable layer's CRC covers it like any other body
// bytes.
//
//   [n+0] magic       kStampMagic — guards against stripping a frame that
//                     was never stamped (mixed stacks, corruption)
//   [n+1] origin rank
//   [n+2] msg id hi   upper 16 bits of the per-origin 32-bit message id
//   [n+3] msg id lo   lower 16 bits
//
// The (origin, msg id) pair is globally unique without coordination —
// each origin numbers its own sends — and is the Chrome flow-event id
// binding the send span to the recv span. The stamp carries no time: every
// rank is a thread of one process, so both flow ends are timed by the same
// tracer clock and a recv can never appear to precede its send.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace aiacc::telemetry {

/// Trailer lanes appended per frame.
inline constexpr std::size_t kStampLanes = 4;

/// Magic marking a stamped frame. Chosen to be exactly float-representable
/// (< 2^24) and disjoint from the reliable layer's frame-kind lane values
/// (1 = data, 2 = ack) so a stamp can never be misread as a reliable
/// trailer even if a bug strips layers in the wrong order
/// (tools/aiacc_analyzer cross-checks this against transport/reliable.cpp).
inline constexpr std::uint32_t kStampMagic = 0xA1ACC;

/// One frame's trace context.
struct TraceStamp {
  int origin = 0;             // sending rank
  std::uint32_t msg_id = 0;   // per-origin send counter (wraps at 2^32)
};

/// The Chrome flow-event id both ends derive from the stamp. Unique per
/// message: each origin numbers its own sends.
[[nodiscard]] constexpr std::uint64_t FlowId(int origin,
                                             std::uint32_t msg_id) noexcept {
  return (static_cast<std::uint64_t>(origin + 1) << 32) | msg_id;
}

/// Write the stamp lanes at `lanes` (caller provides kStampLanes floats).
void WriteStamp(float* lanes, const TraceStamp& stamp) noexcept;

/// Parse kStampLanes floats; nullopt when the magic or any limb lane does
/// not hold the exact small integer the format requires (unstamped frame,
/// or corruption that hit the trailer).
[[nodiscard]] std::optional<TraceStamp> ParseStamp(const float* lanes) noexcept;

/// Strip a trailer appended to `frame` in place (resize down — never
/// reallocates, so a pooled buffer keeps its size class). Returns the
/// parsed stamp, or nullopt (frame untouched) when no valid stamp is
/// present.
std::optional<TraceStamp> StripStamp(std::vector<float>& frame);

}  // namespace aiacc::telemetry
