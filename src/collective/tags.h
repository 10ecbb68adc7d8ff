// Shared tag-namespace layout for every component that multiplexes logical
// channels over one Transport. Tags are the threaded analogue of CUDA
// streams: two operations may overlap in time iff their tag namespaces are
// disjoint. This header is the single source of truth for how the namespace
// is carved up — the collectives, the threaded engine, and the Perseus-style
// session API all derive their tags from these constants, so a collision
// (e.g. a multi-channel ring landing on the heartbeat channel) is a
// compile-time error below, not a runtime hang.
#pragma once

#include <cstdint>

namespace aiacc::collective {

/// Reserved heartbeat channel (core/threaded_engine.cpp HeartbeatLoop).
/// Heartbeats use datagram-style TryRecv; nothing else may ever send on
/// this tag, or a strict receiver would steal/corrupt the beat stream.
inline constexpr int kHeartbeatTag = 0;

/// The engine's gradient-synchronization bit-vector rounds (a min
/// all-reduce per round) run on this namespace.
inline constexpr int kSyncTag = 1;

/// Upper bound on consecutive tags a single collective call consumes from
/// its tag_base: hierarchical all-reduce is the widest (intra-host ring,
/// leader ring, intra-host broadcast = 3).
inline constexpr int kTagsPerCollective = 3;

/// Stride between the per-channel namespaces of a multi-channel collective,
/// and the unit callers must advance their own tag cursor by per channel.
/// Wider than kTagsPerCollective so every channel's rings + rotation passes
/// fit with headroom.
inline constexpr int kChannelTagStride = 16;

/// First tag handed to the engine's all-reduce units; unit u owns
/// [kUnitTagBase + u * kUnitTagStride, +kUnitTagStride).
inline constexpr int kUnitTagBase = 1024;
inline constexpr int kUnitTagStride = 4;

/// Unit retry namespace. The engine never reuses a dirty tag channel: a
/// failed attempt can leave stale half-ring messages in its mailboxes, and
/// a later collective on the same tags would silently reduce over them, so
/// fresh tags per attempt make stale messages unreachable. When the engine
/// retries all-reduce unit `u` after a failed attempt, the unit's channel
/// moves permanently to epoch e >= 1 at UnitEpochTagBase(u, e). Epochs are
/// per-unit failure counts, so every rank that observes the same
/// (symmetric) failure sequence derives the same tags without extra
/// coordination.
inline constexpr int kUnitRetryTagBase = 1048576;  // 2^20
/// Max retry epochs per unit; a unit failing this often is a checkpoint
/// recovery problem, not a retry problem.
inline constexpr int kUnitRetryEpochs = 32;

[[nodiscard]] constexpr int UnitEpochTagBase(std::uint64_t unit_id,
                                             int epoch) noexcept {
  return epoch == 0
             ? kUnitTagBase + static_cast<int>(unit_id) * kUnitTagStride
             : kUnitRetryTagBase +
                   (static_cast<int>(unit_id) * kUnitRetryEpochs +
                    (epoch - 1)) *
                       kUnitTagStride;
}

/// Tag base of channel `channel` (0-based) inside a multi-channel
/// collective whose own base is `base`. Channels start one stride above
/// `base` so even channel 0 is disjoint from the caller's single-ring
/// namespace (the fallback path uses `base` directly).
[[nodiscard]] constexpr int ChannelTagBase(int base, int channel) noexcept {
  return base + kChannelTagStride * (channel + 1);
}

static_assert(kChannelTagStride > kTagsPerCollective,
              "a channel's rings would spill into the next channel's tags");
static_assert(kUnitTagStride > kTagsPerCollective,
              "a unit's collective would spill into the next unit's tags");
static_assert(kSyncTag > kHeartbeatTag,
              "sync rounds must not run on the heartbeat channel");
static_assert(ChannelTagBase(kSyncTag, 0) > kHeartbeatTag &&
                  ChannelTagBase(kUnitTagBase, 0) > kHeartbeatTag,
              "channel tags must never collide with the heartbeat channel");
static_assert(kUnitTagBase > kSyncTag + kTagsPerCollective,
              "unit channels must not overlap the sync namespace");
static_assert(kUnitRetryTagBase > kUnitTagBase,
              "unit retry epochs must sit above the primary unit namespace");
static_assert(UnitEpochTagBase(0, 1) == kUnitRetryTagBase &&
                  UnitEpochTagBase(0, 0) == kUnitTagBase,
              "epoch 0 is the unit's primary namespace; epoch 1 the first "
              "retry namespace");

}  // namespace aiacc::collective
