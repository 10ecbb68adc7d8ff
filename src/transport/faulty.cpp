#include "transport/faulty.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/tracer.h"

namespace aiacc::transport {
namespace {

/// SplitMix64 finalizer — mixes the schedule seed with message coordinates
/// into an independent per-message decision seed.
std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h += 0x9e3779b97f4a7c15ULL + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Sequence numbers ride in a float lane; 2^24 is the last exactly
/// representable integer, far beyond any test's message count.
constexpr std::uint64_t kMaxSeq = 1ULL << 24;

}  // namespace

FaultyTransport::FaultyTransport(Transport& inner, FaultSpec spec)
    : inner_(inner),
      spec_(std::move(spec)),
      raw_(spec_.delivery == FaultDelivery::kRaw),
      crashed_(static_cast<std::size_t>(inner.world_size()), 0),
      sends_by_rank_(static_cast<std::size_t>(inner.world_size()), 0) {
  AIACC_CHECK(spec_.crash_rank < inner.world_size());
  AIACC_CHECK(spec_.straggler_rank < inner.world_size());
  for (const TagFaults& w : spec_.per_tag) {
    AIACC_CHECK(w.tag_lo <= w.tag_hi);
  }
}

const LinkFaults& FaultyTransport::FaultsFor(int src, int dst,
                                             int tag) const {
  for (const TagFaults& w : spec_.per_tag) {
    if (tag >= w.tag_lo && tag <= w.tag_hi) return w.faults;
  }
  auto it = spec_.per_link.find({src, dst});
  return it != spec_.per_link.end() ? it->second : spec_.all_links;
}

Rng FaultyTransport::DecisionRng(int src, int dst, int tag,
                                 std::uint64_t seq) const {
  std::uint64_t h = Mix(spec_.seed, static_cast<std::uint64_t>(src) + 1);
  h = Mix(h, static_cast<std::uint64_t>(dst) + 1);
  h = Mix(h, static_cast<std::uint64_t>(tag) + 1);
  h = Mix(h, seq + 1);
  return Rng(h);
}

Payload FaultyTransport::Frame(std::uint64_t seq, const Payload& data) {
  AIACC_CHECK(seq < kMaxSeq);
  Payload framed;
  framed.reserve(data.size() + 1);
  framed.push_back(static_cast<float>(seq));
  framed.insert(framed.end(), data.begin(), data.end());
  return framed;
}

void FaultyTransport::CorruptLane(Payload& payload, std::size_t first_lane,
                                  Rng& rng) {
  if (payload.size() <= first_lane) return;
  const auto lane = static_cast<std::size_t>(rng.UniformInt(
      static_cast<std::int64_t>(first_lane),
      static_cast<std::int64_t>(payload.size()) - 1));
  const auto bit = static_cast<std::uint32_t>(rng.UniformInt(0, 31));
  std::uint32_t word;
  std::memcpy(&word, &payload[lane], sizeof(word));
  word ^= (1u << bit);
  std::memcpy(&payload[lane], &word, sizeof(word));
}

void FaultyTransport::RecordDelivery() {
  {
    common::MutexLock lock(mu_);
    ++stats_.delivered;
  }
  AIACC_TRACE_INSTANT_V("transport", "recv");
}

void FaultyTransport::Send(int src, int dst, int tag, Payload payload) {
  double sleep_ms = 0.0;
  std::vector<Payload> out;  // wire messages, in delivery order
  {
    common::MutexLock lock(mu_);
    const std::uint64_t sent =
        ++sends_by_rank_[static_cast<std::size_t>(src)];
    if (src == spec_.crash_rank && sent > spec_.crash_after_sends &&
        crashed_[static_cast<std::size_t>(src)] == 0) {
      crashed_[static_cast<std::size_t>(src)] = 1;
      telemetry::FlightRecorder::Global().Record(
          telemetry::FlightSeverity::kFatal, "transport.faulty", "crash",
          src, /*channel=*/-1, tag,
          /*detail0=*/static_cast<std::int64_t>(sent));
    }
    if (crashed_[static_cast<std::size_t>(src)] ||
        crashed_[static_cast<std::size_t>(dst)]) {
      ++stats_.blackholed;
      return;
    }

    SendChannel& ch = send_channels_[{src, dst, tag}];
    const std::uint64_t seq = ch.next_seq++;
    const LinkFaults& f = FaultsFor(src, dst, tag);
    Rng rng = DecisionRng(src, dst, tag, seq);

    if (src == spec_.straggler_rank && spec_.straggler_delay_ms > 0.0) {
      sleep_ms += spec_.straggler_delay_ms;
      ++stats_.delayed;
    }
    if (f.delay_prob > 0.0 && rng.Chance(f.delay_prob)) {
      sleep_ms += rng.Uniform(0.0, f.max_delay_ms);
      ++stats_.delayed;
    }

    if (f.drop_prob > 0.0 && rng.Chance(f.drop_prob)) {
      // The sequence number is consumed: a strict receiver sees the gap and
      // times out rather than silently reducing over a short stream.
      ++stats_.dropped;
    } else {
      Payload wire = raw_ ? std::move(payload) : Frame(seq, payload);
      if (f.corrupt_prob > 0.0 && rng.Chance(f.corrupt_prob)) {
        // Strict mode never corrupts the seq header (lane 0): its contract
        // is exact-stream-or-timeout, and a flipped seq would alias another
        // message instead of corrupting this one's bytes. Raw mode corrupts
        // any lane — the reliable layer's CRC covers its whole frame.
        CorruptLane(wire, raw_ ? 0 : 1, rng);
        ++stats_.corrupted;
      }
      if (f.reorder_prob > 0.0 && rng.Chance(f.reorder_prob) && !ch.held) {
        ch.held = std::move(wire);  // delivered after the next send
        ++stats_.reordered;
      } else {
        if (f.dup_prob > 0.0 && rng.Chance(f.dup_prob)) {
          out.push_back(wire);  // a copy — the duplicate
          ++stats_.duplicated;
        }
        out.push_back(std::move(wire));
        if (ch.held) {
          out.push_back(std::move(*ch.held));
          ch.held.reset();
        }
      }
    }
  }
  if (sleep_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        sleep_ms));
  }
  for (Payload& wire : out) inner_.Send(src, dst, tag, std::move(wire));
}

std::optional<Payload> FaultyTransport::TakeExpectedLocked(RecvChannel& ch) {
  auto it = ch.stash.find(ch.expected);
  if (it == ch.stash.end()) return std::nullopt;
  Payload payload = std::move(it->second);
  ch.stash.erase(it);
  ++ch.expected;
  return payload;
}

Result<Payload> FaultyTransport::Recv(int rank, int src, int tag) {
  return RecvFor(rank, src, tag, kNoTimeout);
}

Result<Payload> FaultyTransport::RecvFor(int rank, int src, int tag,
                                         std::chrono::milliseconds timeout) {
  if (raw_) {
    // Raw mode: what the wire delivers is what the caller gets. Same
    // delivery telemetry as the strict path — a message is a message no
    // matter which semantics handed it over.
    Result<Payload> raw = inner_.RecvFor(rank, src, tag, timeout);
    if (raw.ok()) RecordDelivery();
    return raw;
  }
  const bool bounded = timeout > kNoTimeout;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Poll quantum: the receiver periodically rechecks the sender's reorder
  // hold even while the inner transport is silent, so a held message can
  // never starve a strict receiver (lossless schedules stay lossless).
  constexpr auto kQuantum = std::chrono::milliseconds(20);
  while (true) {
    {
      common::MutexLock lock(mu_);
      RecvChannel& ch = recv_channels_[{rank, src, tag}];
      if (auto payload = TakeExpectedLocked(ch)) {
        lock.Unlock();
        RecordDelivery();
        return *std::move(payload);
      }
      // The exact message we need may be sitting in the sender-side reorder
      // hold with no follow-up send coming to flush it — claim it directly.
      auto sit = send_channels_.find({src, rank, tag});
      if (sit != send_channels_.end() && sit->second.held &&
          static_cast<std::uint64_t>((*sit->second.held)[0]) == ch.expected) {
        Payload body(sit->second.held->begin() + 1, sit->second.held->end());
        sit->second.held.reset();
        ++ch.expected;
        lock.Unlock();
        RecordDelivery();
        return body;
      }
    }

    auto wait = kQuantum;
    if (bounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining <= std::chrono::milliseconds::zero()) {
        return DeadlineExceeded("no in-order message from rank " +
                                std::to_string(src) + " tag " +
                                std::to_string(tag));
      }
      wait = std::min(wait, remaining);
    }
    Result<Payload> raw = inner_.RecvFor(rank, src, tag, wait);
    if (!raw.ok()) {
      // Quantum expiry: go around and recheck stash/hold/deadline.
      if (raw.status().code() == StatusCode::kDeadlineExceeded) continue;
      return raw.status();
    }
    if (raw->empty()) return Internal("unframed message on faulty channel");

    const auto seq = static_cast<std::uint64_t>((*raw)[0]);
    Payload body(raw->begin() + 1, raw->end());
    {
      common::MutexLock lock(mu_);
      RecvChannel& ch = recv_channels_[{rank, src, tag}];
      if (seq == ch.expected) {
        ++ch.expected;
        lock.Unlock();
        RecordDelivery();
        return body;
      }
      if (seq > ch.expected) ch.stash[seq] = std::move(body);
      // seq < expected: a duplicate of something already delivered —
      // discard.
    }
  }
}

std::optional<Payload> FaultyTransport::TryRecv(int rank, int src, int tag) {
  if (raw_) {
    auto raw = inner_.TryRecv(rank, src, tag);
    if (raw) RecordDelivery();
    return raw;
  }
  // Drain every raw arrival into the stash first...
  while (auto raw = inner_.TryRecv(rank, src, tag)) {
    if (raw->empty()) continue;
    const auto seq = static_cast<std::uint64_t>((*raw)[0]);
    Payload body(raw->begin() + 1, raw->end());
    common::MutexLock lock(mu_);
    RecvChannel& ch = recv_channels_[{rank, src, tag}];
    if (seq >= ch.expected) ch.stash[seq] = std::move(body);
  }
  // ...then deliver the oldest one, skipping gaps (datagram semantics: a
  // heartbeat reader cares that *something recent* arrived, not that every
  // beat did).
  std::optional<Payload> payload;
  {
    common::MutexLock lock(mu_);
    RecvChannel& ch = recv_channels_[{rank, src, tag}];
    if (ch.stash.empty()) return std::nullopt;
    auto it = ch.stash.begin();
    payload = std::move(it->second);
    ch.expected = it->first + 1;
    ch.stash.erase(it);
  }
  RecordDelivery();
  return payload;
}

void FaultyTransport::CrashRank(int rank) {
  AIACC_CHECK(rank >= 0 && rank < world_size());
  common::MutexLock lock(mu_);
  if (crashed_[static_cast<std::size_t>(rank)] == 0) {
    crashed_[static_cast<std::size_t>(rank)] = 1;
    telemetry::FlightRecorder::Global().Record(
        telemetry::FlightSeverity::kFatal, "transport.faulty", "crash", rank);
  }
}

bool FaultyTransport::IsCrashed(int rank) const {
  AIACC_CHECK(rank >= 0 && rank < world_size());
  common::MutexLock lock(mu_);
  return crashed_[static_cast<std::size_t>(rank)] != 0;
}

FaultStats FaultyTransport::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

}  // namespace aiacc::transport
