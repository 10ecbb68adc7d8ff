#include "transport/reliable.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace aiacc::transport {
namespace {

// Frame layout (float lanes): the body, then a four-lane trailer whose
// values are small non-negative integers, each exactly representable as a
// float.
//   [0, n)  body   (data: the message; ack: two lanes, the selective seq
//                   and the arrival bitmap of the kSackBits seqs after C)
//   [n+0]   kind   (1 = data, 2 = ack)
//   [n+1]   seq    (data: frame sequence number; ack: cumulative seq C,
//                   every seq below C has arrived)
//   [n+2]   crc hi (upper 16 bits of the CRC32)
//   [n+3]   crc lo (lower 16 bits)
constexpr std::size_t kTrailerLanes = 4;
constexpr std::size_t kAckBodyLanes = 2;
/// Width of an ack's arrival bitmap; 2^23 - 1 is exact in a float.
constexpr std::uint64_t kSackBits = 23;
constexpr float kKindData = 1.0f;
constexpr float kKindAck = 2.0f;
/// Last exactly float-representable integer; bounds both seq and the
/// 16-bit CRC halves with huge headroom.
constexpr std::uint64_t kMaxSeq = 1ULL << 24;

/// CRC register over a frame body; FrameCrc finishes it.
std::uint32_t BodyCrc(const float* body, std::size_t lanes) {
  return common::Crc32Update(0xFFFFFFFFu, body, lanes * sizeof(float));
}

/// CRC32 over the body, then the kind and seq — the trailer fields are
/// covered so a corrupted seq lane is detected, not misfiled as a different
/// message.
std::uint32_t FrameCrc(std::uint32_t body_crc, float kind, std::uint64_t seq) {
  std::uint32_t crc = common::Crc32Update(body_crc, &kind, sizeof(kind));
  crc = common::Crc32Update(crc, &seq, sizeof(seq));
  return crc ^ 0xFFFFFFFFu;
}

/// Fill the trailer lanes of `frame`, whose body lanes are already in place
/// and hash to `body_crc`.
void WriteTrailer(Payload& frame, float kind, std::uint64_t seq,
                  std::uint32_t body_crc) {
  const std::uint32_t crc = FrameCrc(body_crc, kind, seq);
  float* trailer = frame.data() + frame.size() - kTrailerLanes;
  trailer[0] = kind;
  trailer[1] = static_cast<float>(seq);
  trailer[2] = static_cast<float>(crc >> 16);
  trailer[3] = static_cast<float>(crc & 0xFFFFu);
}

// Process-global telemetry: registered once, then relaxed atomic adds.
telemetry::Counter& RetransmitCounter() {
  static telemetry::Counter* c = &telemetry::MetricsRegistry::Global()
                                      .GetCounter("reliable.retransmits");
  return *c;
}
telemetry::Counter& CrcFailureCounter() {
  static telemetry::Counter* c = &telemetry::MetricsRegistry::Global()
                                      .GetCounter("reliable.crc_failures");
  return *c;
}
telemetry::Counter& DeliveryFailureCounter() {
  static telemetry::Counter* c =
      &telemetry::MetricsRegistry::Global().GetCounter(
          "reliable.delivery_failures");
  return *c;
}
telemetry::Counter& AckCounter() {
  static telemetry::Counter* c =
      &telemetry::MetricsRegistry::Global().GetCounter("reliable.acks");
  return *c;
}

}  // namespace

ReliableOptions WithoutResend(ReliableOptions options) {
  AIACC_CHECK(options.message_deadline_ms > 0);
  options.rto_initial_ms = options.message_deadline_ms + 1;
  options.rto_max_ms = options.rto_initial_ms;
  return options;
}

ReliableTransport::ReliableTransport(Transport& inner, ReliableOptions options)
    : inner_(inner),
      options_(options),
      resend_(options.message_deadline_ms <= 0 ||
              options.rto_initial_ms < options.message_deadline_ms),
      pool_(options.pool != nullptr ? *options.pool
                                    : common::BufferPool::Global()),
      shards_(std::make_unique<Shard[]>(
          static_cast<std::size_t>(inner.world_size()))) {
  AIACC_CHECK(options_.rto_initial_ms > 0);
  AIACC_CHECK(options_.rto_max_ms >= options_.rto_initial_ms);
  AIACC_CHECK(options_.daemon_tick_ms > 0);
  if (resend_) daemon_ = std::thread([this] { DaemonLoop(); });
}

ReliableTransport::~ReliableTransport() {
  stop_.store(true, std::memory_order_release);
  if (daemon_.joinable()) daemon_.join();
  // Hand every retained buffer back to the pool (no-op for an empty run).
  for (int r = 0; r < world_size(); ++r) {
    Shard& shard = ShardOf(r);
    common::MutexLock lock(shard.mu);
    for (auto& [key, ch] : shard.tx) {
      for (auto& [seq, frame] : ch.inflight) {
        pool_.Release(std::move(frame.body));
      }
      ch.inflight.clear();
    }
    for (auto& [key, ch] : shard.rx) {
      for (auto& [seq, body] : ch.stash) pool_.Release(std::move(body));
      ch.stash.clear();
    }
  }
}

void ReliableTransport::Send(int src, int dst, int tag, Payload payload) {
  // The one body copy and its CRC run unlocked; concurrent senders
  // serialize only on the seq reservation and in-flight insert below.
  Payload wire = pool_.Acquire(payload.size() + kTrailerLanes);
  std::copy(payload.begin(), payload.end(), wire.begin());
  const std::uint32_t body_crc = BodyCrc(payload.data(), payload.size());
  Shard& shard = ShardOf(src);
  std::uint64_t seq = 0;
  bool reap = false;
  {
    common::MutexLock lock(shard.mu);
    TxChannel& ch = shard.tx[{dst, tag}];
    seq = ch.next_seq++;
    reap = !ch.inflight.empty() && !HasConsumerLocked(shard, dst, tag);
    ++shard.stats.data_frames_sent;
    if (resend_) {
      // The caller's buffer becomes the retransmit source.
      const auto now = std::chrono::steady_clock::now();
      ch.inflight.emplace(
          seq, TxFrame{std::move(payload), body_crc, /*lent=*/false, now,
                       now + std::chrono::milliseconds(options_.rto_initial_ms),
                       options_.rto_initial_ms});
    }
  }
  AIACC_CHECK(seq < kMaxSeq);
  if (!resend_) pool_.Release(std::move(payload));
  WriteTrailer(wire, kKindData, seq, body_crc);
  // Retire the acked bodies, so their buffers are back in the pool for the
  // next send (the daemon would reach them only at its next tick).
  if (reap) DrainMailbox(src, dst, tag);
  // Outside the mutex: a fault decorator may sleep inside Send.
  inner_.Send(src, dst, tag, std::move(wire));
}

bool ReliableTransport::HasConsumerLocked(const Shard& shard, int src,
                                          int tag) {
  const auto it = shard.rx.find({src, tag});
  return it != shard.rx.end() && it->second.consumers > 0;
}

void ReliableTransport::DrainMailbox(int rank, int src, int tag,
                                     std::optional<Payload> first) {
  AckBatch batch;
  if (first) ProcessRawFrame(rank, src, tag, *std::move(first), batch);
  while (auto raw = inner_.TryRecv(rank, src, tag)) {
    ProcessRawFrame(rank, src, tag, *std::move(raw), batch);
  }
  SendAck(rank, src, tag, batch);
}

void ReliableTransport::SendAck(int rank, int src, int tag,
                                const AckBatch& batch) {
  if (!batch.owed) return;
  Payload ack = pool_.Acquire(kAckBodyLanes + kTrailerLanes);
  ack[0] = static_cast<float>(batch.selective);
  ack[1] = static_cast<float>(batch.arrived_after);
  WriteTrailer(ack, kKindAck, batch.cumulative,
               BodyCrc(ack.data(), kAckBodyLanes));
  AckCounter().Add();
  inner_.Send(rank, src, tag, std::move(ack));
}

void ReliableTransport::ProcessRawFrame(int rank, int src, int tag,
                                        Payload frame, AckBatch& batch) {
  Shard& shard = ShardOf(rank);
  const auto reject = [&] {
    CrcFailureCounter().Add();
    telemetry::FlightRecorder::Global().Record(
        telemetry::FlightSeverity::kWarn, "transport.reliable", "crc-discard",
        rank, /*channel=*/-1, tag, /*detail0=*/src);
    {
      common::MutexLock lock(shard.mu);
      ++shard.stats.crc_failures;
    }
    pool_.Release(std::move(frame));
  };
  if (frame.size() < kTrailerLanes) return reject();
  const std::size_t body_lanes = frame.size() - kTrailerLanes;
  const float* trailer = frame.data() + body_lanes;
  const float kind = trailer[0];
  if (kind != kKindData && kind != kKindAck) return reject();
  const auto seq = IntLane(trailer[1], kMaxSeq);
  const auto crc_hi = IntLane(trailer[2], 1ULL << 16);
  const auto crc_lo = IntLane(trailer[3], 1ULL << 16);
  if (!seq || !crc_hi || !crc_lo) return reject();
  if (kind == kKindAck && body_lanes != kAckBodyLanes) return reject();
  const auto stored =
      static_cast<std::uint32_t>((*crc_hi << 16) | *crc_lo);
  if (FrameCrc(BodyCrc(frame.data(), body_lanes), kind, *seq) != stored) {
    return reject();
  }

  if (kind == kKindAck) {
    // An ack arriving at `rank` from `src` acknowledges frames `rank` sent
    // to `src` on this tag: every seq below the cumulative one, the
    // selective one, and those the bitmap marks. Retired nodes are spliced
    // out under the mutex and their bodies released after it, except a
    // body lent to a retransmit (DaemonTickShard releases that one).
    const auto selective = IntLane(frame[0], kMaxSeq);
    const auto arrived_after = IntLane(frame[1], 1ULL << kSackBits);
    if (!selective || !arrived_after) return reject();
    std::map<std::uint64_t, TxFrame> retired;
    {
      common::MutexLock lock(shard.mu);
      const auto it = shard.tx.find({src, tag});
      if (it != shard.tx.end()) {
        auto& inflight = it->second.inflight;
        const auto below = inflight.lower_bound(*seq);
        while (inflight.begin() != below) {
          retired.insert(retired.end(), inflight.extract(inflight.begin()));
        }
        const auto retire = [&](std::uint64_t s) {
          const auto found = inflight.find(s);
          if (found != inflight.end()) retired.insert(inflight.extract(found));
        };
        retire(*selective);
        for (std::uint64_t bits = *arrived_after; bits != 0; bits &= bits - 1) {
          retire(*seq + 1 + static_cast<std::uint64_t>(std::countr_zero(bits)));
        }
      }
      ++shard.stats.acks_received;
    }
    for (auto& [s, retired_frame] : retired) {
      if (!retired_frame.lent) pool_.Release(std::move(retired_frame.body));
    }
    pool_.Release(std::move(frame));
    return;
  }

  // Data frame: stash in order, and owe the peer an ack for it even when
  // it is a duplicate (a lost ack shows up here as a duplicate — the re-ack
  // is what stops its retransmits). The body keeps the frame's buffer,
  // trailer stripped by the resize. A layer that never resends keeps no
  // bodies, so it has nothing to ack.
  frame.resize(body_lanes);
  bool duplicate = true;
  {
    common::MutexLock lock(shard.mu);
    RxChannel& ch = shard.rx[{src, tag}];
    if (*seq >= ch.expected) {
      const auto [it, inserted] = ch.stash.try_emplace(*seq, std::move(frame));
      duplicate = !inserted;
      if (inserted && *seq == ch.received) {
        // Advance the cumulative mark over the contiguous stashed run.
        auto next = it;
        do {
          ++ch.received;
          ++next;
        } while (next != ch.stash.end() && next->first == ch.received);
      }
    }
    if (duplicate) ++shard.stats.duplicates_discarded;
    if (resend_) {
      if (!batch.owed) ++shard.stats.acks_sent;  // one ack per batch
      batch.owed = true;
      // ch.received only grows, so the last frame's view is the newest.
      batch.cumulative = ch.received;
      batch.selective = *seq;
      batch.arrived_after = ArrivedAfter(ch);
    }
  }
  if (duplicate) pool_.Release(std::move(frame));
}

std::uint64_t ReliableTransport::ArrivedAfter(const RxChannel& ch) {
  // In order, nothing is stashed past the cumulative mark: one O(1) check.
  if (ch.stash.empty() || ch.stash.rbegin()->first <= ch.received) return 0;
  std::uint64_t bits = 0;
  for (auto it = ch.stash.upper_bound(ch.received);
       it != ch.stash.end() && it->first <= ch.received + kSackBits; ++it) {
    bits |= 1ULL << (it->first - ch.received - 1);
  }
  return bits;
}

std::optional<Payload> ReliableTransport::TakeExpectedLocked(Shard& shard,
                                                             RxChannel& ch) {
  auto it = ch.stash.begin();
  if (it == ch.stash.end() || it->first != ch.expected) return std::nullopt;
  Payload body = std::move(it->second);
  ch.stash.erase(it);
  ++ch.expected;
  ++shard.stats.delivered;
  return body;
}

Result<Payload> ReliableTransport::RecvFor(int rank, int src, int tag,
                                           std::chrono::milliseconds timeout) {
  const bool bounded = timeout > kNoTimeout;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Short pull quantum: a frame the daemon stashed just before this
  // consumer registered is picked up at the next stash check. Frames that
  // arrive while we are blocked below wake us immediately via the inner
  // transport's own CV.
  constexpr auto kQuantum = std::chrono::milliseconds(2);
  // While a consumer is pulling this channel the daemon and senders leave
  // its inner mailbox alone (frames flow to the thread that wants them).
  Shard& shard = ShardOf(rank);
  RxChannel* ch = nullptr;  // rx nodes live as long as the transport
  {
    common::MutexLock lock(shard.mu);
    ch = &shard.rx[{src, tag}];
    ++ch->consumers;
  }
  const auto finish = [&](Result<Payload> r) -> Result<Payload> {
    common::MutexLock lock(shard.mu);
    --ch->consumers;
    return r;
  };
  while (true) {
    {
      common::MutexLock lock(shard.mu);
      if (auto body = TakeExpectedLocked(shard, *ch)) {
        --ch->consumers;
        AIACC_TRACE_INSTANT_V("transport", "recv");
        return *std::move(body);
      }
    }
    if (inner_.IsShutdown()) {
      return finish(Unavailable("reliable transport shut down"));
    }
    auto wait = kQuantum;
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining <= std::chrono::milliseconds::zero()) {
        return finish(DeadlineExceeded(
            "no in-order reliable message from rank " + std::to_string(src) +
            " tag " + std::to_string(tag)));
      }
      wait = std::min(wait, remaining);
    }
    Result<Payload> raw = inner_.RecvFor(rank, src, tag, wait);
    if (raw.ok()) {
      // Take the rest of the burst too, and ack it all at once.
      DrainMailbox(rank, src, tag, *std::move(raw));
    } else if (raw.status().code() != StatusCode::kDeadlineExceeded &&
               raw.status().code() != StatusCode::kUnavailable) {
      return finish(raw.status());
    }
    // Quantum expiry / shutdown race: loop re-checks stash and deadline.
  }
}

std::optional<Payload> ReliableTransport::TryRecv(int rank, int src, int tag) {
  DrainMailbox(rank, src, tag);
  Shard& shard = ShardOf(rank);
  common::MutexLock lock(shard.mu);
  auto body = TakeExpectedLocked(shard, shard.rx[{src, tag}]);
  if (body) AIACC_TRACE_INSTANT_V("transport", "recv");
  return body;
}

void ReliableTransport::Shutdown() {
  stop_.store(true, std::memory_order_release);
  inner_.Shutdown();
}

ReliableStats ReliableTransport::stats() const {
  ReliableStats total;
  for (int r = 0; r < world_size(); ++r) {
    const Shard& shard = ShardOf(r);
    common::MutexLock lock(shard.mu);
    const ReliableStats& s = shard.stats;
    total.data_frames_sent += s.data_frames_sent;
    total.retransmits += s.retransmits;
    total.acks_sent += s.acks_sent;
    total.acks_received += s.acks_received;
    total.crc_failures += s.crc_failures;
    total.duplicates_discarded += s.duplicates_discarded;
    total.delivery_failures += s.delivery_failures;
    total.delivered += s.delivered;
    for (const auto& [key, ch] : shard.tx) {
      total.in_flight += ch.inflight.size();
    }
  }
  return total;
}

void ReliableTransport::DaemonLoop() {
  // Sleep in slices of at most 10 ms so teardown never waits out a long
  // tick.
  constexpr auto kSlice = std::chrono::milliseconds(10);
  const auto tick = std::chrono::milliseconds(options_.daemon_tick_ms);
  while (!stop_.load(std::memory_order_acquire)) {
    DaemonTick();
    const auto wake = std::chrono::steady_clock::now() + tick;
    for (auto now = std::chrono::steady_clock::now();
         now < wake && !stop_.load(std::memory_order_acquire);
         now = std::chrono::steady_clock::now()) {
      std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
          kSlice, wake - now));
    }
  }
}

void ReliableTransport::DaemonTick() {
  for (int r = 0; r < world_size(); ++r) DaemonTickShard(r);
}

void ReliableTransport::DaemonTickShard(int rank) {
  Shard& shard = ShardOf(rank);
  // 1. Drain inner mailboxes no consumer is watching — how a sender that
  //    has stopped sending still sees its last acks, and how early frames
  //    of a not-yet-started receiver get stashed + acked instead of rotting
  //    unacknowledged.
  poll_.clear();
  {
    common::MutexLock lock(shard.mu);
    for (const auto& [key, ch] : shard.tx) {
      if (!HasConsumerLocked(shard, key.first, key.second)) {
        poll_.push_back(key);
      }
    }
  }
  for (const auto& [peer, tag] : poll_) DrainMailbox(rank, peer, tag);

  // 2. Retransmit overdue frames; expire frames past the message deadline.
  //    An overdue frame's body is lent out of its TxFrame so the reframe
  //    copy is made without the mutex; an ack that retires the frame
  //    meanwhile leaves the lent body for this tick to release.
  resend_scratch_.clear();
  expired_.clear();
  {
    common::MutexLock lock(shard.mu);
    const auto now = std::chrono::steady_clock::now();
    for (auto& [key, ch] : shard.tx) {
      const auto& [dst, tag] = key;
      for (auto it = ch.inflight.begin(); it != ch.inflight.end();) {
        TxFrame& frame = it->second;
        if (options_.message_deadline_ms > 0 &&
            now - frame.first_sent >= std::chrono::milliseconds(
                                          options_.message_deadline_ms)) {
          telemetry::FlightRecorder::Global().Record(
              telemetry::FlightSeverity::kError, "transport.reliable",
              "delivery-failure", rank, /*channel=*/-1, tag,
              /*detail0=*/dst, /*detail1=*/it->first);
          expired_.push_back(std::move(frame.body));
          it = ch.inflight.erase(it);
          ++shard.stats.delivery_failures;
          continue;
        }
        if (now >= frame.next_resend) {
          resend_scratch_.push_back(
              {key, it->first, frame.body_crc, std::move(frame.body), {}});
          frame.lent = true;
          frame.rto_ms = std::min(frame.rto_ms * 2, options_.rto_max_ms);
          frame.next_resend = now + std::chrono::milliseconds(frame.rto_ms);
          ++shard.stats.retransmits;
        }
        ++it;
      }
    }
  }
  if (!resend_scratch_.empty()) RetransmitCounter().Add(resend_scratch_.size());
  if (!expired_.empty()) DeliveryFailureCounter().Add(expired_.size());
  for (Payload& p : expired_) pool_.Release(std::move(p));
  if (resend_scratch_.empty()) return;

  for (Resend& r : resend_scratch_) {
    r.wire = pool_.Acquire(r.body.size() + kTrailerLanes);
    std::copy(r.body.begin(), r.body.end(), r.wire.begin());
    WriteTrailer(r.wire, kKindData, r.seq, r.body_crc);
  }
  {
    common::MutexLock lock(shard.mu);
    for (Resend& r : resend_scratch_) {
      auto& inflight = shard.tx.at(r.key).inflight;
      auto it = inflight.find(r.seq);
      if (it != inflight.end()) {
        it->second.body = std::move(r.body);
        it->second.lent = false;
        r.orphaned = false;
      }
    }
  }
  for (Resend& r : resend_scratch_) {
    if (r.orphaned) pool_.Release(std::move(r.body));
    const auto& [dst, tag] = r.key;
    if (inner_.IsShutdown()) {
      pool_.Release(std::move(r.wire));
      continue;
    }
    inner_.Send(rank, dst, tag, std::move(r.wire));
  }
}

}  // namespace aiacc::transport
