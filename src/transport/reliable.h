// Reliable delivery decorator: the in-band retry tier of the three-tier
// fault story (DESIGN.md "Fault model & recovery"). ReliableTransport sits
// between the collectives and a lossy transport (a FaultyTransport today; a
// real socket transport tomorrow) and restores exactly-once, in-order,
// integrity-checked delivery. It is the only sequencing layer of the stack:
// the fault layer beneath it perturbs the wire and repairs nothing.
//
//   * every Send is framed with a four-lane trailer after the body:
//     [body..., kind, seq, crc hi, crc lo]. The seq is per-(src, dst, tag);
//     the CRC32 covers body, kind and seq and is split across two 16-bit
//     float lanes (a uint32 is not exactly representable as one float; two
//     16-bit halves are). A trailer, not a header, lets the receiver strip
//     a frame with a resize instead of shifting the body down;
//   * the receiver acks once per drained batch, not once per frame: after
//     a blocking receive it drains whatever else is pending, then sends one
//     ack carrying a cumulative seq C ("every seq below C has arrived"),
//     the batch's last seq, and a bitmap of which of the 23 seqs after C
//     have arrived. The last two are selective: a frame that overtook a
//     gap is not resent while the gap heals. Acks share the data
//     tag and are demuxed by the kind lane — necessary because on a 2-rank
//     ring next == prev, so both directions of a rank pair share one tag.
//     Duplicates earn a re-ack and are discarded; out-of-order arrivals
//     are stashed and delivered in order;
//   * the sender keeps its own body buffer, not a second copy of the frame,
//     for every unacked frame, so a send copies the body once (into the
//     wire frame). A background retransmit daemon reframes from that buffer
//     on a capped exponential backoff (rto_initial_ms doubling to
//     rto_max_ms) until an ack retires it or the per-message deadline
//     expires — at which point the message is dropped and the *receiver's*
//     RecvFor deadline surfaces the failure to tier 2 (engine unit retry)
//     or tier 3 (checkpoint recovery). The daemon checks the deadline
//     before it resends, so options whose first resend falls past the
//     deadline (WithoutResend) turn retransmission off and keep sequencing,
//     dedup and CRC: that is the engine's "tier 1 off" stack over injected
//     faults. Such a layer keeps no bodies, so it sends no acks and runs no
//     daemon;
//   * a corrupted frame fails its CRC, is counted and discarded, and heals
//     through the normal retransmit path — corruption is just loss.
//
// Wire frames, acks, retransmits and delivered bodies all come from a
// BufferPool, so the steady state of a fixed communication pattern
// performs zero payload allocations even while retransmitting (asserted in
// tests/reliable_test).
//
// Concurrency: the bookkeeping lives in per-rank shards. Shard r holds the
// channels rank r sends and receives on — their seq counters, in-flight
// and stash maps, consumer counts and stats — behind its own mutex
// (lock_rank::kReliableTransport). Only rank r's threads and the daemon
// lock shard r, and no code holds two shards at once, so ranks never
// contend with each other. Everything that scales with the payload runs
// outside the shard mutex — the CRC (common/crc32.h, slicing-by-8), every
// copy, every BufferPool call, and every call into the inner transport (a
// fault decorator may sleep in Send). So concurrent senders serialize only
// on reserving a seq and inserting the frame, and frames of one channel may
// reach the wire out of seq order (the receiver's stash reorders them).
// Consumers pull their own (src, tag) channel from the inner transport in
// short quanta and feed every frame (data or ack) through the shared
// demux. Mailboxes with no active consumer — where a sender's acks arrive
// — are drained by the sender itself at its next Send on a channel with
// frames in flight, so acks retire bodies at the sender's pace, and by the
// daemon every tick, so acks never rot in an unread mailbox once a sender
// goes quiet. The daemon reframes a retransmit from a body it lends out of
// the in-flight map.
//
// Telemetry (process registry): `reliable.retransmits`,
// `reliable.crc_failures`, `reliable.delivery_failures`, `reliable.acks`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

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
  std::uint64_t in_flight = 0;         // unacked frames held right now
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
  /// A channel within a rank's shard: (peer, tag).
  using ChannelKey = std::pair<int, int>;

  /// One unacked frame: the sender's body plus its retransmit clock.
  struct TxFrame {
    Payload body;  // retransmits reframe from it
    std::uint32_t body_crc = 0;  // CRC register over the body (BodyCrc)
    bool lent = false;  // body moved out while DaemonTickShard reframes it
    std::chrono::steady_clock::time_point first_sent;
    std::chrono::steady_clock::time_point next_resend;
    std::int64_t rto_ms = 0;
  };
  struct TxChannel {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, TxFrame> inflight;
  };
  struct RxChannel {
    std::uint64_t expected = 0;  // next seq to deliver
    std::uint64_t received = 0;  // every seq below it has arrived (the
                                 // cumulative ack); >= expected
    std::map<std::uint64_t, Payload> stash;  // arrived, not yet delivered
    int consumers = 0;  // active RecvFor pullers (daemon skips if > 0)
  };
  /// Rank r's bookkeeping: tx holds the channels r sends on, keyed by
  /// (dst, tag); rx the channels r receives on, keyed by (src, tag). Map
  /// nodes are never erased, so a channel pointer stays valid for the
  /// transport's life (and is only dereferenced under `mu`).
  struct Shard {
    mutable common::Mutex mu{"reliable-shard",
                             common::lock_rank::kReliableTransport};
    std::map<ChannelKey, TxChannel> tx GUARDED_BY(mu);
    std::map<ChannelKey, RxChannel> rx GUARDED_BY(mu);
    ReliableStats stats GUARDED_BY(mu);
  };
  /// What one drained batch of raw frames owes the peer: at most one ack.
  struct AckBatch {
    bool owed = false;  // a data frame (new or duplicate) arrived
    std::uint64_t cumulative = 0;  // RxChannel::received at the last frame
    std::uint64_t selective = 0;  // the batch's last data seq
    std::uint64_t arrived_after = 0;  // ArrivedAfter at the last frame
  };

  [[nodiscard]] Shard& ShardOf(int rank) const noexcept {
    return shards_[static_cast<std::size_t>(rank)];
  }
  /// Feed one raw frame from the inner transport through the demux and note
  /// the ack a data frame earns in `batch`. Call without a shard mutex.
  /// `rank` is the receiving rank, `src` the peer.
  void ProcessRawFrame(int rank, int src, int tag, Payload frame,
                       AckBatch& batch);
  /// Demux `first` (a frame already pulled off the wire), then everything
  /// pending in the inner (rank, src, tag) mailbox, then send the batch's
  /// ack.
  void DrainMailbox(int rank, int src, int tag,
                    std::optional<Payload> first = std::nullopt);
  void SendAck(int rank, int src, int tag, const AckBatch& batch);
  /// True while a RecvFor is pulling the shard's (src, tag) mailbox.
  [[nodiscard]] static bool HasConsumerLocked(const Shard& shard, int src,
                                              int tag) REQUIRES(shard.mu);
  /// Bit i set: seq `ch.received + 1 + i` has arrived (is stashed), for
  /// the 23 seqs after the cumulative mark.
  [[nodiscard]] static std::uint64_t ArrivedAfter(const RxChannel& ch);
  /// Take the next in-order body if present.
  static std::optional<Payload> TakeExpectedLocked(Shard& shard,
                                                   RxChannel& ch)
      REQUIRES(shard.mu);
  void DaemonLoop();
  /// One daemon pass over every shard: drain unconsumed channels,
  /// retransmit, expire.
  void DaemonTick();
  void DaemonTickShard(int rank);

  Transport& inner_;  // NOLOCK(internally synchronized Transport)
  const ReliableOptions options_;
  // False when the first resend falls past the message deadline: no kept
  // bodies, no acks, no daemon.
  const bool resend_;
  common::BufferPool& pool_;  // NOLOCK(internally synchronized)
  const std::unique_ptr<Shard[]> shards_;  // one per rank

  // Daemon-thread scratch, reused across ticks.
  struct Resend {
    ChannelKey key;
    std::uint64_t seq = 0;
    std::uint32_t body_crc = 0;
    Payload body;
    Payload wire;
    bool orphaned = true;  // an ack retired the frame while it was lent
  };
  std::vector<ChannelKey> poll_;  // NOLOCK(daemon thread only)
  std::vector<Resend> resend_scratch_;  // NOLOCK(daemon thread only)
  std::vector<Payload> expired_;  // NOLOCK(daemon thread only)

  std::atomic<bool> stop_{false};
  std::thread daemon_;  // NOLOCK(started in ctor, joined in dtor)
};

}  // namespace aiacc::transport
