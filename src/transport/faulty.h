// Seeded, deterministic fault injection over any Transport (the chaos layer
// of the reproduction's robustness work). A FaultyTransport decorates an
// inner transport with a per-(src, dst) fault policy:
//
//   * delay/jitter   — sender-side sleep before delivery;
//   * drop           — the message is lost (a strict receiver times out);
//   * duplication    — the message is delivered twice;
//   * reordering     — the message is held and delivered after its channel's
//                      next message (a strict receiver that needs the held
//                      message as its next in-order delivery claims it
//                      directly, so reordering never turns into loss);
//   * corruption     — one bit of one payload lane is flipped in transit
//                      (the CRC layer in transport/reliable.h exists to
//                      catch exactly this);
//   * rank crash     — a blackhole: every message from/to the crashed rank
//                      is silently discarded (models a dead node — peers
//                      only notice via missing heartbeats / timeouts);
//   * straggling     — a fixed extra delay on every send from one rank.
//
// Which messages are perturbed is a pure function of (seed, src, dst, tag,
// sequence number), so a fault schedule replays identically across runs —
// chaos tests are reproducible by seed, and a schedule serializes to JSON
// for replay across processes (transport/fault_schedule.h).
//
// Delivery semantics, selected by FaultSpec::delivery:
//
//   kStrict (default): each (src, dst, tag) channel carries a sequence
//   number. Recv/RecvFor reassemble: duplicates are discarded, reordered
//   messages are delivered in order, and a gap (dropped message) makes the
//   receiver wait until its deadline — so a faulty channel either yields
//   the exact sent stream or a non-OK status, never a silently corrupted
//   one. (Corruption in strict mode only ever hits body lanes, never the
//   sequence header, preserving that contract.) TryRecv is
//   *datagram-style*: it delivers the oldest available message and skips
//   gaps, which is what heartbeat freshness checks want. Do not mix the
//   two styles on one channel.
//
//   kRaw: no framing, no reassembly — drops, duplicates, reorders, and
//   corrupt bits reach the receiver exactly as the wire would deliver
//   them. This is the mode ReliableTransport decorates: the reliability
//   layer owns sequencing and integrity, so the chaos layer must not
//   quietly repair the stream underneath it.
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

/// Receiver-side semantics of the chaos layer (see file header).
enum class FaultDelivery { kStrict, kRaw };

/// A complete seeded fault schedule.
struct FaultSpec {
  std::uint64_t seed = 1;
  FaultDelivery delivery = FaultDelivery::kStrict;
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
/// messages handed to consumers on every receive path — blocking, deadline
/// (RecvFor), and non-blocking (TryRecv) alike — so receive-path telemetry
/// stays honest regardless of which primitive a caller drains with.
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
  Result<Payload> Recv(int rank, int src, int tag) override;
  Result<Payload> RecvFor(int rank, int src, int tag,
                          std::chrono::milliseconds timeout) override;
  std::optional<Payload> TryRecv(int rank, int src, int tag) override;

  void Shutdown() override { inner_.Shutdown(); }
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return inner_.IsShutdown();
  }
  Status Barrier() override { return inner_.Barrier(); }
  [[nodiscard]] std::uint64_t TotalMessages() const override {
    return inner_.TotalMessages();
  }

  /// Manually blackhole a rank (in addition to the scheduled crash).
  void CrashRank(int rank);
  [[nodiscard]] bool IsCrashed(int rank) const;

  [[nodiscard]] FaultStats stats() const;
  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

 private:
  struct SendChannel {
    std::uint64_t next_seq = 0;
    /// A reorder victim waiting for the channel's next send.
    std::optional<Payload> held;
  };
  struct RecvChannel {
    std::uint64_t expected = 0;
    std::map<std::uint64_t, Payload> stash;  // out-of-order arrivals
  };

  using ChannelKey = std::tuple<int, int, int>;  // strict ordering on maps

  [[nodiscard]] const LinkFaults& FaultsFor(int src, int dst, int tag) const
      REQUIRES(mu_);
  /// Deterministic per-message decision stream.
  [[nodiscard]] Rng DecisionRng(int src, int dst, int tag,
                                std::uint64_t seq) const;
  /// Frame/deframe: the wire payload carries [seq, data...].
  static Payload Frame(std::uint64_t seq, const Payload& data);
  /// Flip one random bit of one lane in [first_lane, size) (no-op on an
  /// empty range).
  static void CorruptLane(Payload& payload, std::size_t first_lane, Rng& rng);
  /// Stash-aware in-order receive step.
  std::optional<Payload> TakeExpectedLocked(RecvChannel& ch) REQUIRES(mu_);
  /// Count + trace one message handed to a consumer.
  void RecordDelivery() EXCLUDES(mu_);

  Transport& inner_;     // NOLOCK(internally synchronized Transport)
  const FaultSpec spec_;
  const bool raw_;  // delivery == kRaw: no framing, no reassembly

  mutable common::Mutex mu_{"faulty-transport", common::lock_rank::kTransport};
  std::map<ChannelKey, SendChannel> send_channels_ GUARDED_BY(mu_);  // (src, dst, tag)
  std::map<ChannelKey, RecvChannel> recv_channels_ GUARDED_BY(mu_);  // (rank, src, tag)
  std::vector<char> crashed_ GUARDED_BY(mu_);
  std::vector<std::uint64_t> sends_by_rank_ GUARDED_BY(mu_);
  FaultStats stats_ GUARDED_BY(mu_);
};

}  // namespace aiacc::transport
