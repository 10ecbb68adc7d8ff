// Reliable delivery decorator: the in-band retry tier of the three-tier
// fault story (DESIGN.md "Fault model & recovery"). ReliableTransport sits
// between the collectives and a lossy transport (a FaultyTransport today; a
// real socket transport tomorrow) and restores exactly-once, in-order,
// integrity-checked delivery. It is the only sequencing layer of the stack:
// the fault layer beneath it perturbs the wire and repairs nothing.
//
//   * every Send is framed with a per-(src, dst, tag) sequence number and a
//     CRC32 over the body, split across two 16-bit float lanes (a uint32 is
//     not exactly representable as one float; two 16-bit halves are);
//   * the receiver acks each data frame (selective ack, same tag, demuxed
//     from data by a kind lane — necessary because on a 2-rank ring next ==
//     prev, so both directions of a rank pair share one tag); duplicates
//     are re-acked and discarded, out-of-order arrivals are stashed and
//     delivered in order;
//   * the sender keeps a pooled copy of every unacked frame and a background
//     retransmit daemon resends on a capped exponential backoff
//     (rto_initial_ms doubling to rto_max_ms) until the ack arrives or the
//     per-message deadline expires — at which point the message is dropped
//     and the *receiver's* RecvFor deadline surfaces the failure to tier 2
//     (engine unit retry) or tier 3 (checkpoint recovery). The daemon
//     checks the deadline before it resends, so options whose first resend
//     falls past the deadline (WithoutResend) turn retransmission off and
//     keep sequencing, dedup and CRC: that is the engine's "tier 1 off"
//     stack over injected faults. Such a layer keeps no wire copies, so it
//     sends no acks and runs no daemon;
//   * a corrupted frame fails its CRC, is counted and discarded, and heals
//     through the normal retransmit path — corruption is just loss.
//
// All retransmit copies and delivered bodies come from a BufferPool, so the
// steady state of a fixed communication pattern performs zero payload
// allocations even while retransmitting (asserted in tests/reliable_test).
//
// Concurrency: one internal mutex (lock_rank::kReliableTransport) guards
// only bookkeeping: the per-channel seq counters, the in-flight and stash
// maps, consumer counts and stats. Everything that
// scales with the payload runs outside it — the CRC (common/crc32.h,
// slicing-by-8), every copy, every BufferPool call, and every call into
// the inner transport (a fault decorator may sleep in Send). So concurrent
// senders serialize only on reserving a seq and inserting the frame, and
// frames of one channel may reach the wire out of seq order (the receiver's
// stash reorders them). Consumers pull their own (src, tag) channel from
// the inner transport in short quanta and feed every frame (data or ack)
// through the shared demux. Mailboxes with no active consumer — where a
// sender's acks arrive — are drained by the sender itself at its next Send
// on a channel with frames in flight, so acks retire wire copies at the
// sender's pace, and by the daemon every tick, so acks never rot in an
// unread mailbox once a sender goes quiet. The daemon clones a retransmit
// from the in-flight copy after lending it out of the map.
//
// Telemetry (process registry): `reliable.retransmits`,
// `reliable.crc_failures`, `reliable.delivery_failures`, `reliable.acks`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "common/buffer_pool.h"
#include "common/status.h"
#include "common/sync.h"
#include "transport/inproc.h"

namespace aiacc::transport {

/// Retransmission policy. Defaults suit the in-process chaos tests (RTTs of
/// microseconds, fault-injected delays of milliseconds).
struct ReliableOptions {
  /// First retransmit fires this long after the original send.
  std::int64_t rto_initial_ms = 10;
  /// Backoff cap: rto doubles per retransmit up to this.
  std::int64_t rto_max_ms = 160;
  /// Give up retransmitting a frame this long after its first send (<= 0 =
  /// retry forever). A dropped frame becomes the receiver's RecvFor
  /// deadline problem — the hand-off from tier 1 to tiers 2/3.
  std::int64_t message_deadline_ms = 10000;
  /// Retransmit-daemon scan period.
  std::int64_t daemon_tick_ms = 1;
  /// Buffer recycler for retransmit copies and delivered bodies.
  common::BufferPool* pool = &common::BufferPool::Global();
};

/// Tier 1 off: `options` with the first resend past the message deadline
/// (which must be finite). The layer still sequences, dedups and
/// CRC-checks, but never resends, so a drop surfaces as the receiver's
/// RecvFor deadline.
[[nodiscard]] ReliableOptions WithoutResend(ReliableOptions options);

/// What the reliability layer did (per instance; the process-global
/// telemetry counters aggregate across instances).
struct ReliableStats {
  std::uint64_t data_frames_sent = 0;  // first transmissions
  std::uint64_t retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t crc_failures = 0;      // frames discarded on checksum
  std::uint64_t duplicates_discarded = 0;
  std::uint64_t delivery_failures = 0; // frames given up after deadline
  std::uint64_t delivered = 0;         // bodies handed to consumers
};

class ReliableTransport final : public Transport {
 public:
  /// `inner` must outlive this decorator.
  explicit ReliableTransport(Transport& inner, ReliableOptions options = {});
  ~ReliableTransport() override;
  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }

  void Send(int src, int dst, int tag, Payload payload) override;
  Result<Payload> RecvFor(int rank, int src, int tag,
                          std::chrono::milliseconds timeout) override;
  /// Non-blocking, but still strict: delivers only the next in-order frame
  /// (after draining whatever the inner transport has pending). Reliable
  /// channels never skip gaps — a gap is a retransmit in flight. Datagram
  /// traffic such as heartbeats belongs on the wire beneath this layer.
  std::optional<Payload> TryRecv(int rank, int src, int tag) override;

  void Shutdown() override;
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return inner_.IsShutdown();
  }

  [[nodiscard]] ReliableStats stats() const;
  [[nodiscard]] const ReliableOptions& options() const noexcept {
    return options_;
  }

 private:
  using ChannelKey = std::tuple<int, int, int>;

  /// One unacked frame: the pooled wire copy plus its retransmit clock.
  struct TxFrame {
    Payload wire;  // full frame (header + body), retransmitted verbatim;
                   // empty while DaemonTick clones it unlocked
    std::chrono::steady_clock::time_point first_sent;
    std::chrono::steady_clock::time_point next_resend;
    std::int64_t rto_ms = 0;
  };
  struct TxChannel {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, TxFrame> inflight;
  };
  struct RxChannel {
    std::uint64_t expected = 0;
    std::map<std::uint64_t, Payload> stash;  // out-of-order bodies
    int consumers = 0;  // active RecvFor pullers (daemon skips if > 0)
  };

  /// Feed one raw frame from the inner transport through the demux and send
  /// the ack a data frame earns. Call without `mu_`. `rank` is the receiving
  /// rank, `src` the peer.
  void ProcessRawFrame(int rank, int src, int tag, Payload frame);
  /// Demux everything pending in the inner (rank, src, tag) mailbox.
  void DrainMailbox(int rank, int src, int tag);
  /// True while a RecvFor is pulling the (rank, src, tag) mailbox.
  [[nodiscard]] bool HasConsumerLocked(int rank, int src, int tag) const
      REQUIRES(mu_);
  /// Take the next in-order body if present.
  std::optional<Payload> TakeExpectedLocked(RxChannel& ch) REQUIRES(mu_);
  void DaemonLoop();
  /// One daemon pass: drain unconsumed channels, retransmit, expire.
  void DaemonTick();

  Transport& inner_;  // NOLOCK(internally synchronized Transport)
  const ReliableOptions options_;
  // False when the first resend falls past the message deadline: no wire
  // copies, no acks, no daemon.
  const bool resend_;
  common::BufferPool& pool_;  // NOLOCK(internally synchronized)

  mutable common::Mutex mu_{"reliable-transport",
                            common::lock_rank::kReliableTransport};
  std::map<ChannelKey, TxChannel> tx_ GUARDED_BY(mu_);  // (src, dst, tag)
  std::map<ChannelKey, RxChannel> rx_ GUARDED_BY(mu_);  // (rank, src, tag)
  ReliableStats stats_ GUARDED_BY(mu_);

  std::atomic<bool> stop_{false};
  std::thread daemon_;  // NOLOCK(started in ctor, joined in dtor)
};

}  // namespace aiacc::transport
