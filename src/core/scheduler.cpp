#include "core/scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/logging.h"

namespace aiacc::core {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local ReadySetScheduler::PopInfo t_last_pop;

}  // namespace

int SchedulerPolicy::UrgentCutoff() const noexcept {
  if (!enabled() || num_gradients <= 0) return 0;
  const float cut = urgent_fraction * static_cast<float>(num_gradients);
  // At least one gradient is urgent whenever the policy is on at all.
  return std::max(1, static_cast<int>(cut));
}

ReadySetScheduler::ReadySetScheduler(SchedulerPolicy policy)
    : policy_(policy) {
  // Typical ready-set depth is bounded by units-per-iteration; reserving
  // up front keeps the steady state allocation-free.
  common::MutexLock lock(mu_);
  entries_.reserve(64);
}

void ReadySetScheduler::BindGradientCount(int num_gradients) {
  common::MutexLock lock(mu_);
  policy_.num_gradients = num_gradients;
}

void ReadySetScheduler::Push(AllReduceUnit unit) {
  int priority = std::numeric_limits<int>::max();
  for (const UnitSegment& seg : unit.segments) {
    priority = std::min(priority, seg.gradient_id);
  }
  {
    common::MutexLock lock(mu_);
    if (shutdown_) return;
    Entry e;
    e.unit = std::move(unit);
    e.seq = next_seq_++;
    e.push_ns = NowNs();
    e.priority = priority;
    entries_.push_back(std::move(e));
  }
  cv_.NotifyAll();
}

std::size_t ReadySetScheduler::PickIndex(int stream_index,
                                         std::int64_t now_ns) const {
  AIACC_CHECK(!entries_.empty());
  // Stream 0 (and every stream when priority dispatch is off) pops the
  // oldest push sequence: the rule every rank shares, which guarantees the
  // globally smallest-sequence incomplete unit is always claimed.
  std::size_t best = 0;
  if (stream_index == 0 || !policy_.enabled()) {
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].seq < entries_[best].seq) best = i;
    }
    return best;
  }
  const std::int64_t aging_ns =
      static_cast<std::int64_t>(policy_.aging_ms) * 1'000'000;
  const int cutoff = policy_.UrgentCutoff();
  auto key = [&](const Entry& e) {
    const bool aged = aging_ns > 0 && (now_ns - e.push_ns) >= aging_ns;
    // Three classes, oldest-first inside each except urgent: aged entries
    // drain first (FIFO — the latency guard), then the urgent class by
    // (priority, seq), then bulk strictly FIFO. Priority ordering is
    // deliberately confined to the urgent class: a total priority order
    // over bulk buys nothing (the next forward is nowhere near those
    // layers) while maximizing cross-rank ready-set divergence — ranks pop
    // bulk in different orders whenever their queue contents differ by a
    // beat, mispairing streams across ranks and serializing the rings.
    // Sequence breaks every tie, so the pop is deterministic given the
    // same ready-set contents.
    if (aged) return std::tuple<int, int, std::uint64_t>(0, 0, e.seq);
    if (e.priority < cutoff) {
      return std::tuple<int, int, std::uint64_t>(1, e.priority, e.seq);
    }
    return std::tuple<int, int, std::uint64_t>(2, 0, e.seq);
  };
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (key(entries_[i]) < key(entries_[best])) best = i;
  }
  return best;
}

std::optional<AllReduceUnit> ReadySetScheduler::TakeAt(std::size_t index) {
  Entry taken = std::move(entries_[index]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));

  const int cutoff = policy_.UrgentCutoff();
  const std::int64_t now = NowNs();
  ++stats_.pops;
  bool bypassed_someone = false;
  for (Entry& w : entries_) {
    if (w.seq < taken.seq) bypassed_someone = true;
    // Everything more urgent that is still waiting has now been overtaken
    // by a less-urgent dispatch — the raw material of an inversion.
    if (w.priority < taken.priority) ++w.bypassed;
  }
  if (bypassed_someone) ++stats_.priority_pops;
  const bool urgent = taken.priority < cutoff;
  if (urgent && taken.bypassed > 0) ++stats_.inversions;
  const std::int64_t aging_ns =
      static_cast<std::int64_t>(policy_.aging_ms) * 1'000'000;
  if (policy_.enabled() && aging_ns > 0 &&
      (now - taken.push_ns) >= aging_ns) {
    ++stats_.aged_pops;
  }

  t_last_pop.push_ns = taken.push_ns;
  t_last_pop.pop_ns = now;
  t_last_pop.priority = taken.priority;
  t_last_pop.urgent = urgent;
  t_last_pop.bypassed = taken.bypassed;
  return std::move(taken.unit);
}

std::optional<AllReduceUnit> ReadySetScheduler::PopFor(int stream_index) {
  common::MutexLock lock(mu_);
  while (entries_.empty() && !shutdown_) cv_.Wait(lock);
  if (entries_.empty()) return std::nullopt;
  return TakeAt(PickIndex(stream_index, NowNs()));
}

void ReadySetScheduler::Shutdown() {
  {
    common::MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
}

std::size_t ReadySetScheduler::Size() const {
  common::MutexLock lock(mu_);
  return entries_.size();
}

SchedulerStats ReadySetScheduler::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

const ReadySetScheduler::PopInfo& ReadySetScheduler::last_pop()
    const noexcept {
  return t_last_pop;
}

}  // namespace aiacc::core
