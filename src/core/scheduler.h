// Ready-set unit scheduler (DAG-scheduled gradient transmission).
//
// The engine models one training iteration as a DAG: backward compute
// produces gradients back-to-front, each all-reduce unit is a comm node,
// and the *next* forward pass consumes tensors front-to-back. The longest
// path through that DAG — not total comm volume — is the iteration time
// (Shi et al., PAPERS.md), so the unit a channel should run next is the one
// whose result the next forward needs soonest: the unit holding the
// lowest gradient id (registration order is name-sorted and identical on
// every rank, so ids order the next forward's consumption on every rank
// identically). FIFO dispatch inverts this — backward readiness order is
// back-to-front — which is exactly the priority inversion this scheduler
// removes.
//
// Deadlock-freedom across ranks. Units run blocking collectives: a unit's
// ring only completes once EVERY rank has popped it. Pure priority pops
// are unsafe — ranks observe different ready-set states (push/pop timing
// differs) and could partition their channels over disjoint unit sets,
// each blocking forever in a ring the other ranks never join. The
// scheduler therefore splits policy by stream:
//
//   * stream 0 always pops the oldest unit in push-sequence order;
//   * streams >= 1 pop the urgent class by (priority, sequence) first,
//     and everything else — bulk — strictly FIFO, with aging on top.
//
// Priority ordering is confined to the urgent class on purpose. A total
// priority order over bulk units buys nothing (the next forward pass is
// nowhere near those layers when they dispatch) but maximizes cross-rank
// ready-set divergence: ranks whose queues differ by one in-flight unit
// pop bulk in different orders, mispairing streams across ranks so each
// stream blocks in a ring its peer hasn't joined yet. Bulk-FIFO keeps the
// common case rank-consistent while urgent units still jump the queue
// identically everywhere (the cutoff is a rank-agreed constant).
//
// Proof sketch: the unit push sequence is identical on every rank (it is
// derived from the agreed sync rounds + deterministic packing). Let m be
// the globally smallest-sequence incomplete unit. Every unit before m is
// complete, hence was popped on every rank (all ranks participate in every
// collective). So on each rank, m is either already claimed by some stream
// (that stream is inside m's collective) or m is the oldest queued unit
// and the rank's stream 0 claims it on its next pop. Either way every
// rank eventually runs m's collective, m completes, induction. The same
// argument gives starvation-freedom: every unit becomes the smallest
// incomplete one eventually, regardless of what streams >= 1 do.
//
// Aging is a latency guard on top of that liveness guarantee: an entry
// that has waited longer than the aging window sorts ahead of everything
// younger, so streams >= 1 also drain old bulk units instead of leaving
// them all to stream 0.
//
// The scheduler only reorders *dispatch*; the bytes each collective
// reduces are unchanged, so results are bit-identical under any policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/sync.h"
#include "core/packing.h"

namespace aiacc::core {

/// Dispatch policy knobs (set from CommConfig by the caller).
struct SchedulerPolicy {
  /// Fraction of the gradient-id space counted as "urgent" (consumed
  /// earliest by the next forward). 0 disables priority dispatch entirely:
  /// every stream pops FIFO — the scheduler-off arm of the A/B.
  float urgent_fraction = 0.25f;
  /// Entries older than this sort ahead of everything younger on
  /// streams >= 1 (latency aging; liveness never depends on it).
  int aging_ms = 50;
  /// Total registered gradients; with urgent_fraction it fixes the urgent
  /// id cutoff. 0 = cutoff unknown, nothing is urgent.
  int num_gradients = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return urgent_fraction > 0.0f;
  }
  /// Ids strictly below the cutoff are urgent.
  [[nodiscard]] int UrgentCutoff() const noexcept;
};

/// Counters the scheduler accumulates (drained by the engine into metrics
/// and telemetry; all monotonic).
struct SchedulerStats {
  std::uint64_t pops = 0;
  std::uint64_t priority_pops = 0;  // pops that bypassed FIFO order
  std::uint64_t inversions = 0;     // urgent unit popped after being bypassed
  std::uint64_t aged_pops = 0;      // pops won on age, not priority
};

/// Priority ready-set replacing the engine's FIFO `unit_queue`. All
/// dispatch must go through Push/PopFor (tools/aiacc_analyzer enforces
/// this via the `priority-ordering` check).
///
/// Thread-safe; Pop blocks until a unit arrives or Shutdown(). Steady
/// state performs no allocations: entries recycle the vector's capacity
/// and AllReduceUnit storage is moved, never copied.
class ReadySetScheduler {
 public:
  explicit ReadySetScheduler(SchedulerPolicy policy = SchedulerPolicy{});
  ReadySetScheduler(const ReadySetScheduler&) = delete;
  ReadySetScheduler& operator=(const ReadySetScheduler&) = delete;

  /// Fix the registered gradient count (the urgent-cutoff denominator).
  /// The engine calls this at Finalize — after registration froze the
  /// registry, before any service loop can Push.
  void BindGradientCount(int num_gradients) EXCLUDES(mu_);

  /// Enqueue a ready unit. Stamps the push sequence (the agreed global
  /// order), the wait-span start time and the unit's priority: the
  /// smallest gradient id among its segments, i.e. the tensor the *next
  /// forward pass* consumes earliest (ids follow name-sorted registration
  /// order, identical on every rank). Lower = more urgent.
  void Push(AllReduceUnit unit) EXCLUDES(mu_);

  /// Blocking pop for communication stream `stream_index`. Stream 0 pops
  /// strictly in push-sequence order (the deadlock-freedom anchor);
  /// streams >= 1 pop aged entries FIFO, then the urgent class by
  /// (priority, sequence), then bulk FIFO. Returns nullopt once the
  /// scheduler is shut down and drained.
  std::optional<AllReduceUnit> PopFor(int stream_index) EXCLUDES(mu_);

  /// After shutdown Push is a no-op and PopFor drains then returns nullopt.
  void Shutdown() EXCLUDES(mu_);

  [[nodiscard]] std::size_t Size() const EXCLUDES(mu_);
  [[nodiscard]] SchedulerStats stats() const EXCLUDES(mu_);
  /// Wall-clock wait (push -> pop) of the most recent pop, and its
  /// priority/bypass data — read by the popping thread right after PopFor
  /// to emit the `engine.sched` wait span without re-locking.
  struct PopInfo {
    std::int64_t push_ns = 0;
    std::int64_t pop_ns = 0;
    int priority = 0;
    bool urgent = false;
    std::uint32_t bypassed = 0;  // less-urgent pops that overtook this unit
  };
  /// Valid on the calling thread after a successful PopFor.
  [[nodiscard]] const PopInfo& last_pop() const noexcept;

 private:
  struct Entry {
    AllReduceUnit unit;
    std::uint64_t seq = 0;
    std::int64_t push_ns = 0;
    int priority = 0;
    std::uint32_t bypassed = 0;
  };

  [[nodiscard]] std::size_t PickIndex(int stream_index,
                                      std::int64_t now_ns) const
      REQUIRES(mu_);
  std::optional<AllReduceUnit> TakeAt(std::size_t index) REQUIRES(mu_);

  mutable common::Mutex mu_{"ready-set-scheduler",
                            common::lock_rank::kQueue};
  SchedulerPolicy policy_ GUARDED_BY(mu_);
  common::CondVar cv_;
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  SchedulerStats stats_ GUARDED_BY(mu_);
};

}  // namespace aiacc::core
