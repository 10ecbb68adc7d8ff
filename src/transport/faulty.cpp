#include "transport/faulty.h"

#include <bit>
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

/// Content hash of a payload: how the layer recognises a repeat.
std::uint64_t PayloadHash(const Payload& payload) {
  std::uint64_t h = payload.size();
  for (const float lane : payload) {
    h = Mix(h, std::bit_cast<std::uint32_t>(lane));
  }
  return h;
}

}  // namespace

FaultyTransport::FaultyTransport(Transport& inner, FaultSpec spec)
    : inner_(inner),
      spec_(std::move(spec)),
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
                                 std::uint64_t index,
                                 std::uint64_t ordinal) const {
  std::uint64_t h = Mix(spec_.seed, static_cast<std::uint64_t>(src) + 1);
  h = Mix(h, static_cast<std::uint64_t>(dst) + 1);
  h = Mix(h, static_cast<std::uint64_t>(tag) + 1);
  h = Mix(h, index + 1);
  // A first copy's stream depends on its index alone, so on a channel that
  // carries no repeats the index is the send count.
  if (ordinal > 0) h = Mix(h, ordinal);
  return Rng(h);
}

void FaultyTransport::CorruptLane(Payload& payload, Rng& rng) {
  if (payload.empty()) return;
  const auto lane = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(payload.size()) - 1));
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
    const LinkFaults& f = FaultsFor(src, dst, tag);

    if (src == spec_.straggler_rank && spec_.straggler_delay_ms > 0.0) {
      sleep_ms += spec_.straggler_delay_ms;
      ++stats_.delayed;
    }
    if (!f.Any()) {
      out.push_back(std::move(payload));
    } else {
      const auto it = ch.carried
                          .try_emplace(PayloadHash(payload),
                                       Carried{ch.carried.size(), 0})
                          .first;
      Rng rng = DecisionRng(src, dst, tag, it->second.index,
                            it->second.copies++);
      if (f.delay_prob > 0.0 && rng.Chance(f.delay_prob)) {
        sleep_ms += rng.Uniform(0.0, f.max_delay_ms);
        ++stats_.delayed;
      }
      if (f.drop_prob > 0.0 && rng.Chance(f.drop_prob)) {
        ++stats_.dropped;
      } else {
        if (f.corrupt_prob > 0.0 && rng.Chance(f.corrupt_prob)) {
          CorruptLane(payload, rng);
          ++stats_.corrupted;
        }
        if (f.reorder_prob > 0.0 && rng.Chance(f.reorder_prob) && !ch.held) {
          // Held until the next send or an empty receive.
          ch.held = std::move(payload);
          ++stats_.reordered;
        } else {
          if (f.dup_prob > 0.0 && rng.Chance(f.dup_prob)) {
            out.push_back(payload);  // a copy — the duplicate
            ++stats_.duplicated;
          }
          out.push_back(std::move(payload));
        }
      }
    }
    if (ch.held && !out.empty()) {
      out.push_back(std::move(*ch.held));
      ch.held.reset();
    }
  }
  if (sleep_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        sleep_ms));
  }
  for (Payload& wire : out) inner_.Send(src, dst, tag, std::move(wire));
}

bool FaultyTransport::ReleaseHeld(int src, int dst, int tag) {
  std::optional<Payload> held;
  {
    common::MutexLock lock(mu_);
    auto it = send_channels_.find({src, dst, tag});
    if (it == send_channels_.end() || !it->second.held) return false;
    held.swap(it->second.held);
  }
  inner_.Send(src, dst, tag, *std::move(held));
  return true;
}

Result<Payload> FaultyTransport::RecvFor(int rank, int src, int tag,
                                         std::chrono::milliseconds timeout) {
  if (auto payload = TryRecv(rank, src, tag)) return *std::move(payload);
  Result<Payload> raw = inner_.RecvFor(rank, src, tag, timeout);
  if (raw.ok()) RecordDelivery();
  return raw;
}

std::optional<Payload> FaultyTransport::TryRecv(int rank, int src, int tag) {
  auto payload = inner_.TryRecv(rank, src, tag);
  if (!payload && ReleaseHeld(src, rank, tag)) {
    payload = inner_.TryRecv(rank, src, tag);
  }
  if (payload) RecordDelivery();
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
