// Seeded, deterministic fault injection over any Transport (the chaos layer
// of the reproduction's robustness work). A FaultyTransport decorates an
// inner transport with a per-(src, dst) fault policy:
//
//   * delay/jitter   — sender-side sleep before delivery;
//   * drop           — the message is lost;
//   * duplication    — the message is delivered twice;
//   * reordering     — the message is held and delivered after its channel's
//                      next message, or as soon as a receive finds the
//                      channel's inner mailbox empty (so a reorder never
//                      turns into a loss for a receiver that polls, as
//                      ReliableTransport does in short quanta);
//   * corruption     — one bit of one payload lane is flipped in transit
//                      (the CRC layer in transport/reliable.h exists to
//                      catch exactly this);
//   * rank crash     — a blackhole: every message from/to the crashed rank
//                      is silently discarded (models a dead node — peers
//                      only notice via missing heartbeats / timeouts);
//   * straggling     — a fixed extra delay on every send from one rank.
//
// The layer is a pure wire perturber: no framing, no reassembly. Drops,
// duplicates, reorders and flipped bits reach the receiver exactly as a
// lossy wire would deliver them. Sequencing, dedup and integrity belong to
// ReliableTransport, which every fault-bearing engine stack runs on top of
// this layer.
//
// Which messages are perturbed is a pure function of (seed, src, dst, tag,
// the index of the payload's first copy among the distinct payloads the
// channel has carried, how many identical copies it carried before). A
// retransmit is an identical payload: it gets a fresh but seeded decision
// and does not move the index of any first copy after it, so a first
// transmission's fate does not depend on how many retransmits raced it
// onto the channel. On a channel without repeats the index is the send
// count. What stays timing-dependent is the order of first copies that
// different threads put on one channel (a 2-rank ring's data and acks).
#pragma once

#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "transport/inproc.h"

namespace aiacc::transport {

/// Fault policy of one directed (src, dst) link.
struct LinkFaults {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double reorder_prob = 0.0;
  /// Probability of flipping one random bit of one payload lane.
  double corrupt_prob = 0.0;
  double delay_prob = 0.0;
  /// When delayed, the extra latency is uniform in [0, max_delay_ms).
  double max_delay_ms = 0.0;

  [[nodiscard]] bool Any() const noexcept {
    return drop_prob > 0.0 || dup_prob > 0.0 || reorder_prob > 0.0 ||
           corrupt_prob > 0.0 || delay_prob > 0.0;
  }

  friend bool operator==(const LinkFaults&, const LinkFaults&) = default;
};

/// Fault policy applied only to a contiguous tag window — how chaos tests
/// target one logical channel (e.g. one multi-channel ring's namespace)
/// while the rest of the transport stays healthy.
struct TagFaults {
  int tag_lo = 0;  // inclusive
  int tag_hi = 0;  // inclusive
  LinkFaults faults;

  friend bool operator==(const TagFaults&, const TagFaults&) = default;
};

/// A complete seeded fault schedule.
struct FaultSpec {
  std::uint64_t seed = 1;
  /// Policy applied to every directed pair unless overridden below.
  LinkFaults all_links;
  /// Per-(src, dst) overrides.
  std::map<std::pair<int, int>, LinkFaults> per_link;
  /// Per-tag-window overrides (first matching window wins; consulted
  /// before per_link/all_links).
  std::vector<TagFaults> per_tag;

  /// Rank to crash (-1 = none): once it has issued `crash_after_sends`
  /// sends, all its traffic (both directions) is blackholed.
  int crash_rank = -1;
  std::uint64_t crash_after_sends = 0;

  /// Rank whose every send is slowed by `straggler_delay_ms` (-1 = none).
  int straggler_rank = -1;
  double straggler_delay_ms = 0.0;
};

/// Injection counters (what the schedule actually did — tests assert on
/// these to prove the chaos layer was exercised). `delivered` counts
/// messages handed to consumers on both receive paths — RecvFor and the
/// non-blocking TryRecv alike — so receive-path telemetry stays honest
/// regardless of which primitive a caller drains with.
struct FaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
  std::uint64_t blackholed = 0;
  std::uint64_t delivered = 0;
};

class FaultyTransport final : public Transport {
 public:
  /// `inner` must outlive this decorator.
  FaultyTransport(Transport& inner, FaultSpec spec);
  FaultyTransport(const FaultyTransport&) = delete;
  FaultyTransport& operator=(const FaultyTransport&) = delete;

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }

  void Send(int src, int dst, int tag, Payload payload) override;
  Result<Payload> RecvFor(int rank, int src, int tag,
                          std::chrono::milliseconds timeout) override;
  std::optional<Payload> TryRecv(int rank, int src, int tag) override;

  void Shutdown() override { inner_.Shutdown(); }
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return inner_.IsShutdown();
  }

  /// Manually blackhole a rank (in addition to the scheduled crash).
  void CrashRank(int rank);
  [[nodiscard]] bool IsCrashed(int rank) const;

  [[nodiscard]] FaultStats stats() const;
  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

 private:
  /// What a channel has carried of one payload: the index of its first
  /// copy among the channel's distinct payloads, and the copies so far.
  struct Carried {
    std::uint64_t index = 0;
    std::uint64_t copies = 0;
  };
  struct SendChannel {
    /// By payload hash: the (index, ordinal) keying each copy's decision.
    std::map<std::uint64_t, Carried> carried;
    /// A reorder victim waiting for the channel's next send or an empty
    /// receive.
    std::optional<Payload> held;
  };

  using ChannelKey = std::tuple<int, int, int>;  // strict ordering on maps

  [[nodiscard]] const LinkFaults& FaultsFor(int src, int dst, int tag) const
      REQUIRES(mu_);
  /// Deterministic decision stream of the `ordinal`-th copy of the
  /// `index`-th distinct payload on channel (src, dst, tag).
  [[nodiscard]] Rng DecisionRng(int src, int dst, int tag,
                                std::uint64_t index,
                                std::uint64_t ordinal) const;
  /// Flip one random bit of one lane (no-op on an empty payload).
  static void CorruptLane(Payload& payload, Rng& rng);
  /// Put the reorder victim held on (src, dst, tag), if any, on the wire.
  /// Returns whether there was one.
  bool ReleaseHeld(int src, int dst, int tag) EXCLUDES(mu_);
  /// Count + trace one message handed to a consumer.
  void RecordDelivery() EXCLUDES(mu_);

  Transport& inner_;     // NOLOCK(internally synchronized Transport)
  const FaultSpec spec_;

  mutable common::Mutex mu_{"faulty-transport", common::lock_rank::kTransport};
  std::map<ChannelKey, SendChannel> send_channels_ GUARDED_BY(mu_);  // (src, dst, tag)
  std::vector<char> crashed_ GUARDED_BY(mu_);
  std::vector<std::uint64_t> sends_by_rank_ GUARDED_BY(mu_);
  FaultStats stats_ GUARDED_BY(mu_);
};

}  // namespace aiacc::transport
