// Real multi-threaded in-process transport. Each rank is driven by a caller
// thread (as each GPU worker is driven by its MPI process in the paper);
// Send/RecvFor match on (source, tag) like MPI point-to-point. Tags multiplex
// logical channels, so one rank pair can run several concurrent
// communication streams — the threaded analogue of the multi-CUDA-stream
// design.
//
// `Transport` is the abstract interface the collective layer programs
// against; `InProcTransport` is the reliable in-memory implementation and
// `FaultyTransport` (transport/faulty.h) decorates any Transport with
// seeded fault injection.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace aiacc::transport {

using Payload = std::vector<float>;

/// Timeout value meaning "block forever" for RecvFor.
inline constexpr std::chrono::milliseconds kNoTimeout{0};

/// Abstract point-to-point transport: (src, tag)-matched channels between
/// `world_size` ranks. All methods are thread-safe; one logical channel
/// (rank, src, tag) must have a single consumer thread at a time
/// (MPI-style).
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual int world_size() const noexcept = 0;

  /// Deliver `payload` to `dst`'s mailbox under (src, tag). Never blocks on
  /// the receiver (fault decorators may add sender-side delay).
  virtual void Send(int src, int dst, int tag, Payload payload) = 0;

  /// Block until a message from (src, tag) arrives at `rank` and return
  /// its payload; Unavailable after Shutdown(), kDeadlineExceeded if none
  /// arrives within `timeout` (`timeout <= 0`, e.g. kNoTimeout, waits
  /// forever). The deadline is what lets collectives abort instead of
  /// hanging when a peer has crashed or the link is dropping messages.
  virtual Result<Payload> RecvFor(int rank, int src, int tag,
                                  std::chrono::milliseconds timeout) = 0;

  /// Non-blocking receive: the channel's next message, if one is there.
  /// Below the reliable layer it is the heartbeat primitive: whatever the
  /// wire delivered, gaps and all, since freshness beats completeness.
  virtual std::optional<Payload> TryRecv(int rank, int src, int tag) = 0;

  /// Wake all blocked receivers with an error (teardown / failure
  /// handling). Idempotent; the transport stays dead afterwards.
  virtual void Shutdown() = 0;

  [[nodiscard]] virtual bool IsShutdown() const noexcept = 0;
};

/// Every (src, tag) slot owns its own condition variable, so a Send signals
/// exactly the one receiver that can consume the message.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(int world_size);
  InProcTransport(const InProcTransport&) = delete;
  InProcTransport& operator=(const InProcTransport&) = delete;

  [[nodiscard]] int world_size() const noexcept override {
    return world_size_;
  }

  void Send(int src, int dst, int tag, Payload payload) override;
  Result<Payload> RecvFor(int rank, int src, int tag,
                          std::chrono::milliseconds timeout) override;
  std::optional<Payload> TryRecv(int rank, int src, int tag) override;

  void Shutdown() override;
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Sense-reversing barrier over all ranks (each rank calls once).
  /// Returns Ok when every rank arrived, or Unavailable when the wait was
  /// cut short by Shutdown() — callers must not treat a failed barrier as
  /// a completed one.
  Status Barrier();

  /// Messages delivered so far (all ranks) — used by tests to assert traffic
  /// shapes (e.g. ring all-reduce sends exactly 2(n-1) messages per rank).
  [[nodiscard]] std::uint64_t TotalMessages() const;

  /// Signal/wakeup instrumentation for this transport instance. A futile
  /// wakeup is a blocked receiver that woke and found its slot still empty
  /// (per-slot CVs keep these to spurious wakeups). `receives` counts every message
  /// actually delivered to a consumer, on the blocking (RecvFor) and
  /// non-blocking (TryRecv) paths alike, so wake-stat ratios stay honest on
  /// heartbeat-heavy workloads that drain mailboxes with TryRecv.
  struct WakeStats {
    std::uint64_t notifies = 0;        // CV signals sent by senders
    std::uint64_t wakeups = 0;         // blocked receivers woken
    std::uint64_t futile_wakeups = 0;  // woke with nothing to take
    std::uint64_t receives = 0;        // messages delivered to consumers
  };
  [[nodiscard]] WakeStats wake_counters() const noexcept;

  /// Total float payload bytes accepted by Send so far (all ranks). The
  /// concrete-transport companion to TotalMessages: tests assert traffic
  /// *volume* shapes with it (e.g. bit-packed sync rounds shrink per-round
  /// bytes 32x versus the 0/1-float encoding).
  [[nodiscard]] std::uint64_t TotalPayloadBytes() const noexcept;

 private:
  /// One (src, tag) channel: FIFO of payloads plus that channel's private
  /// CV. Slots live in a node-based map and are never erased, so references
  /// stay valid for the transport's lifetime. Every field is protected by
  /// the owning Mailbox's mu (not expressible as GUARDED_BY across structs).
  struct Slot {
    std::deque<Payload> fifo;
    common::CondVar cv;
  };
  struct Mailbox {
    common::Mutex mu{"inproc-mailbox", common::lock_rank::kMailbox};
    std::map<std::pair<int, int>, Slot> slots GUARDED_BY(mu);
  };

  /// The slot for (src, tag), created on first use.
  static Slot& SlotFor(Mailbox& box, int src, int tag) REQUIRES(box.mu);

  const int world_size_;
  std::vector<Mailbox> mailboxes_;   // NOLOCK(sized at construction, never resized)
  std::atomic<std::uint64_t> notifies_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> futile_wakeups_{0};
  std::atomic<std::uint64_t> receives_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> total_messages_{0};
  std::atomic<std::uint64_t> total_payload_bytes_{0};

  common::Mutex barrier_mu_{"inproc-barrier", common::lock_rank::kMailbox};
  common::CondVar barrier_cv_;
  int barrier_count_ GUARDED_BY(barrier_mu_) = 0;
  int barrier_generation_ GUARDED_BY(barrier_mu_) = 0;
};

}  // namespace aiacc::transport
