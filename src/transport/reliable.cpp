#include "transport/reliable.h"

#include <algorithm>
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

// Frame layout (float lanes). Header values are small non-negative
// integers, each exactly representable as a float.
//   [0] kind   (1 = data, 2 = ack)
//   [1] seq    (data: frame sequence number; ack: acknowledged sequence)
//   [2] crc hi (upper 16 bits of the CRC32)
//   [3] crc lo (lower 16 bits)
//   [4..] body (data frames only)
constexpr std::size_t kHeaderLanes = 4;
constexpr float kKindData = 1.0f;
constexpr float kKindAck = 2.0f;
/// Last exactly float-representable integer; bounds both seq and the
/// 16-bit CRC halves with huge headroom.
constexpr std::uint64_t kMaxSeq = 1ULL << 24;

/// CRC32 over the frame's kind, seq, and body bytes — the header fields are
/// covered so a corrupted seq lane is detected, not misfiled as a different
/// message.
std::uint32_t FrameCrc(float kind, std::uint64_t seq, const float* body,
                       std::size_t body_lanes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  crc = common::Crc32Update(crc, &kind, sizeof(kind));
  crc = common::Crc32Update(crc, &seq, sizeof(seq));
  crc = common::Crc32Update(crc, body, body_lanes * sizeof(float));
  return crc ^ 0xFFFFFFFFu;
}

/// Fill the header lanes of `frame`, whose body lanes are already in place.
void WriteHeader(Payload& frame, float kind, std::uint64_t seq) {
  const std::uint32_t crc = FrameCrc(kind, seq, frame.data() + kHeaderLanes,
                                     frame.size() - kHeaderLanes);
  frame[0] = kind;
  frame[1] = static_cast<float>(seq);
  frame[2] = static_cast<float>(crc >> 16);
  frame[3] = static_cast<float>(crc & 0xFFFFu);
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
                                    : common::BufferPool::Global()) {
  AIACC_CHECK(options_.rto_initial_ms > 0);
  AIACC_CHECK(options_.rto_max_ms >= options_.rto_initial_ms);
  AIACC_CHECK(options_.daemon_tick_ms > 0);
  if (resend_) daemon_ = std::thread([this] { DaemonLoop(); });
}

ReliableTransport::~ReliableTransport() {
  stop_.store(true, std::memory_order_release);
  if (daemon_.joinable()) daemon_.join();
  // Hand every retained buffer back to the pool (no-op for an empty run).
  common::MutexLock lock(mu_);
  for (auto& [key, ch] : tx_) {
    for (auto& [seq, frame] : ch.inflight) pool_.Release(std::move(frame.wire));
    ch.inflight.clear();
  }
  for (auto& [key, ch] : rx_) {
    for (auto& [seq, body] : ch.stash) pool_.Release(std::move(body));
    ch.stash.clear();
  }
}

void ReliableTransport::Send(int src, int dst, int tag, Payload payload) {
  TxChannel* ch = nullptr;  // tx_ nodes live as long as the transport
  std::uint64_t seq = 0;
  bool reap = false;
  {
    common::MutexLock lock(mu_);
    ch = &tx_[{src, dst, tag}];
    seq = ch->next_seq++;
    reap = !ch->inflight.empty() && !HasConsumerLocked(src, dst, tag);
  }
  AIACC_CHECK(seq < kMaxSeq);
  // Retire the acked wire copies first, so their buffers are back in the
  // pool before this send acquires new ones (the daemon would reach them
  // only at its next tick).
  if (reap) DrainMailbox(src, dst, tag);

  // Framing runs unlocked: concurrent senders serialize only on the seq
  // reservation above and the in-flight insert below.
  Payload wire = pool_.Acquire(kHeaderLanes + payload.size());
  std::copy(payload.begin(), payload.end(), wire.begin() + kHeaderLanes);
  WriteHeader(wire, kKindData, seq);
  pool_.Release(std::move(payload));
  Payload kept;  // the copy retransmits resend until the ack retires it
  if (resend_) {
    kept = pool_.Acquire(wire.size());
    std::copy(wire.begin(), wire.end(), kept.begin());
  }
  {
    common::MutexLock lock(mu_);
    ++stats_.data_frames_sent;
    if (resend_) {
      const auto now = std::chrono::steady_clock::now();
      TxFrame& frame = ch->inflight[seq];
      frame.wire = std::move(kept);
      frame.first_sent = now;
      frame.rto_ms = options_.rto_initial_ms;
      frame.next_resend = now + std::chrono::milliseconds(frame.rto_ms);
    }
  }
  // Outside the mutex: a fault decorator may sleep inside Send.
  inner_.Send(src, dst, tag, std::move(wire));
}

bool ReliableTransport::HasConsumerLocked(int rank, int src, int tag) const {
  const auto it = rx_.find({rank, src, tag});
  return it != rx_.end() && it->second.consumers > 0;
}

void ReliableTransport::DrainMailbox(int rank, int src, int tag) {
  while (auto raw = inner_.TryRecv(rank, src, tag)) {
    ProcessRawFrame(rank, src, tag, *std::move(raw));
  }
}

void ReliableTransport::ProcessRawFrame(int rank, int src, int tag,
                                        Payload frame) {
  const auto reject = [&] {
    CrcFailureCounter().Add();
    telemetry::FlightRecorder::Global().Record(
        telemetry::FlightSeverity::kWarn, "transport.reliable", "crc-discard",
        rank, /*channel=*/-1, tag, /*detail0=*/src);
    {
      common::MutexLock lock(mu_);
      ++stats_.crc_failures;
    }
    pool_.Release(std::move(frame));
  };
  if (frame.size() < kHeaderLanes) return reject();
  const float kind = frame[0];
  if (kind != kKindData && kind != kKindAck) return reject();
  const auto seq = IntLane(frame[1], kMaxSeq);
  const auto crc_hi = IntLane(frame[2], 1ULL << 16);
  const auto crc_lo = IntLane(frame[3], 1ULL << 16);
  if (!seq || !crc_hi || !crc_lo) return reject();
  const std::size_t body_lanes = frame.size() - kHeaderLanes;
  if (kind == kKindAck && body_lanes != 0) return reject();
  const auto stored =
      static_cast<std::uint32_t>((*crc_hi << 16) | *crc_lo);
  if (FrameCrc(kind, *seq, frame.data() + kHeaderLanes, body_lanes) !=
      stored) {
    return reject();
  }

  if (kind == kKindAck) {
    // An ack arriving at `rank` from `src` acknowledges a frame `rank`
    // sent to `src` on this tag. The wire copy is empty when the frame is
    // already gone or lent to a retransmit (DaemonTick releases it then).
    Payload retired;
    {
      common::MutexLock lock(mu_);
      auto it = tx_.find({rank, src, tag});
      if (it != tx_.end()) {
        auto fit = it->second.inflight.find(*seq);
        if (fit != it->second.inflight.end()) {
          retired = std::move(fit->second.wire);
          it->second.inflight.erase(fit);
        }
      }
      ++stats_.acks_received;
    }
    if (!retired.empty()) pool_.Release(std::move(retired));
    pool_.Release(std::move(frame));
    return;
  }

  // Data frame: stash in order, ack unconditionally (a lost ack shows up
  // here as a duplicate — the re-ack is what stops its retransmits). The
  // body keeps the frame's buffer, header stripped in place. A layer that
  // never resends keeps no copies, so it has nothing to ack.
  frame.erase(frame.begin(), frame.begin() + kHeaderLanes);
  std::optional<Payload> duplicate;
  {
    common::MutexLock lock(mu_);
    RxChannel& ch = rx_[{rank, src, tag}];
    if (*seq < ch.expected || ch.stash.count(*seq) != 0) {
      ++stats_.duplicates_discarded;
      duplicate = std::move(frame);
    } else {
      ch.stash.emplace(*seq, std::move(frame));
    }
    if (resend_) ++stats_.acks_sent;
  }
  if (duplicate) pool_.Release(*std::move(duplicate));
  if (!resend_) return;
  Payload ack = pool_.Acquire(kHeaderLanes);
  WriteHeader(ack, kKindAck, *seq);
  AckCounter().Add();
  inner_.Send(rank, src, tag, std::move(ack));
}

std::optional<Payload> ReliableTransport::TakeExpectedLocked(RxChannel& ch) {
  auto it = ch.stash.find(ch.expected);
  if (it == ch.stash.end()) return std::nullopt;
  Payload body = std::move(it->second);
  ch.stash.erase(it);
  ++ch.expected;
  ++stats_.delivered;
  return body;
}

Result<Payload> ReliableTransport::Recv(int rank, int src, int tag) {
  return RecvFor(rank, src, tag, kNoTimeout);
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
  {
    common::MutexLock lock(mu_);
    ++rx_[{rank, src, tag}].consumers;
  }
  const auto finish = [&](Result<Payload> r) -> Result<Payload> {
    common::MutexLock lock(mu_);
    --rx_[{rank, src, tag}].consumers;
    return r;
  };
  while (true) {
    {
      common::MutexLock lock(mu_);
      RxChannel& ch = rx_[{rank, src, tag}];
      if (auto body = TakeExpectedLocked(ch)) {
        --ch.consumers;
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
      ProcessRawFrame(rank, src, tag, *std::move(raw));
    } else if (raw.status().code() != StatusCode::kDeadlineExceeded &&
               raw.status().code() != StatusCode::kUnavailable) {
      return finish(raw.status());
    }
    // Quantum expiry / shutdown race: loop re-checks stash and deadline.
  }
}

std::optional<Payload> ReliableTransport::TryRecv(int rank, int src, int tag) {
  DrainMailbox(rank, src, tag);
  common::MutexLock lock(mu_);
  RxChannel& ch = rx_[{rank, src, tag}];
  auto body = TakeExpectedLocked(ch);
  if (body) AIACC_TRACE_INSTANT_V("transport", "recv");
  return body;
}

void ReliableTransport::Shutdown() {
  stop_.store(true, std::memory_order_release);
  inner_.Shutdown();
}

ReliableStats ReliableTransport::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
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
  // 1. Drain inner mailboxes no consumer is watching — how a sender that
  //    has stopped sending still sees its last acks, and how early frames
  //    of a not-yet-started receiver get stashed + acked instead of rotting
  //    unacknowledged.
  std::vector<ChannelKey> to_poll;
  {
    common::MutexLock lock(mu_);
    for (const auto& [key, ch] : tx_) {
      const auto& [src, dst, tag] = key;
      if (!HasConsumerLocked(src, dst, tag)) to_poll.push_back(key);
    }
  }
  for (const auto& [rank, src, tag] : to_poll) DrainMailbox(rank, src, tag);

  // 2. Retransmit overdue frames; expire frames past the message deadline.
  //    An overdue frame's wire copy is lent out of its TxFrame so the clone
  //    is made without the mutex; an ack that retires the frame meanwhile
  //    leaves the lent copy for this tick to release.
  struct Resend {
    ChannelKey key;
    std::uint64_t seq = 0;
    Payload wire;
    Payload clone;
  };
  std::vector<Resend> resend;
  std::vector<Payload> expired;
  std::uint64_t expired_count = 0;
  {
    common::MutexLock lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (auto& [key, ch] : tx_) {
      const auto& [src, dst, tag] = key;
      for (auto it = ch.inflight.begin(); it != ch.inflight.end();) {
        TxFrame& frame = it->second;
        if (options_.message_deadline_ms > 0 &&
            now - frame.first_sent >= std::chrono::milliseconds(
                                          options_.message_deadline_ms)) {
          telemetry::FlightRecorder::Global().Record(
              telemetry::FlightSeverity::kError, "transport.reliable",
              "delivery-failure", src, /*channel=*/-1, tag,
              /*detail0=*/dst, /*detail1=*/it->first);
          expired.push_back(std::move(frame.wire));
          it = ch.inflight.erase(it);
          ++stats_.delivery_failures;
          ++expired_count;
          continue;
        }
        if (now >= frame.next_resend) {
          resend.push_back({key, it->first, std::move(frame.wire), {}});
          frame.rto_ms = std::min(frame.rto_ms * 2, options_.rto_max_ms);
          frame.next_resend = now + std::chrono::milliseconds(frame.rto_ms);
          ++stats_.retransmits;
        }
        ++it;
      }
    }
  }
  if (!resend.empty()) RetransmitCounter().Add(resend.size());
  if (expired_count > 0) DeliveryFailureCounter().Add(expired_count);
  for (Payload& p : expired) pool_.Release(std::move(p));
  if (resend.empty()) return;

  for (Resend& r : resend) {
    r.clone = pool_.Acquire(r.wire.size());
    std::copy(r.wire.begin(), r.wire.end(), r.clone.begin());
  }
  {
    common::MutexLock lock(mu_);
    for (Resend& r : resend) {
      auto& inflight = tx_.at(r.key).inflight;
      auto it = inflight.find(r.seq);
      if (it != inflight.end()) std::swap(it->second.wire, r.wire);
    }
  }
  for (Resend& r : resend) {
    // Still holding the copy: an ack retired the frame while it was lent.
    if (!r.wire.empty()) pool_.Release(std::move(r.wire));
    const auto& [src, dst, tag] = r.key;
    if (inner_.IsShutdown()) {
      pool_.Release(std::move(r.clone));
      continue;
    }
    inner_.Send(src, dst, tag, std::move(r.clone));
  }
}

}  // namespace aiacc::transport
