// Causal-tracing decorator: the observability tier of the transport stack
// (DESIGN.md §7). TracingTransport sits on *top* of the stack
// (inproc -> faulty -> reliable -> tracing) and gives every frame a wire
// trace context (telemetry/trace_context.h):
//
//   * Send appends the stamp trailer — origin rank and per-origin message
//     id — and records a Chrome flow *start* event on the calling thread's
//     lane;
//   * RecvFor/TryRecv strip the trailer and record the matching flow
//     *end* — binding the recv span to the originating send span across
//     ranks;
//   * both ends derive the flow id from the stamp alone, so no side
//     channel or coordination exists between sender and receiver.
//
// Every frame through this decorator is stamped: sender and receiver run
// through the same instance, so a frame can never arrive half-interpreted.
// The engine stacks the decorator only when the tracer is on at
// construction. Flow *events* are additionally gated on the tracer being
// enabled, so a stack whose tracer turned off only pays the trailer copy.
// Both flow ends are timed by the one tracer clock all ranks share.
//
// Zero-alloc: the stamped wire copy comes from a BufferPool (the original
// body is released back), and stripping shrinks in place — the steady
// state of a fixed communication pattern performs no payload allocations
// (asserted in tests/observability_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/buffer_pool.h"
#include "telemetry/trace_context.h"
#include "telemetry/tracer.h"
#include "transport/inproc.h"

namespace aiacc::transport {

struct TracingOptions {
  /// Buffer recycler for the stamped wire copies.
  common::BufferPool* pool = &common::BufferPool::Global();
  /// Tracer receiving flow events (nullptr = the process-global tracer).
  telemetry::RuntimeTracer* tracer = nullptr;
};

/// What the tracing layer did (per instance).
struct TracingStats {
  std::uint64_t stamped = 0;        // frames sent with a trailer
  std::uint64_t stripped = 0;       // trailers parsed + removed on receive
  std::uint64_t parse_failures = 0; // expected a stamp, lanes did not parse
};

class TracingTransport final : public Transport {
 public:
  /// `inner` must outlive this decorator.
  explicit TracingTransport(Transport& inner, TracingOptions options = {});
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }

  void Send(int src, int dst, int tag, Payload payload) override;
  Result<Payload> RecvFor(int rank, int src, int tag,
                          std::chrono::milliseconds timeout) override;
  std::optional<Payload> TryRecv(int rank, int src, int tag) override;

  void Shutdown() override { inner_.Shutdown(); }
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return inner_.IsShutdown();
  }

  [[nodiscard]] TracingStats stats() const noexcept;

 private:
  /// Strip + account an inbound frame in place.
  void Unstamp(Payload& payload);

  Transport& inner_;  // NOLOCK(internally synchronized Transport)
  common::BufferPool& pool_;             // NOLOCK(internally synchronized)
  telemetry::RuntimeTracer& tracer_;     // NOLOCK(internally synchronized)
  // Per-rank send counters; sized at construction, entries are atomic.
  std::vector<std::atomic<std::uint32_t>> next_msg_id_;  // NOLOCK(atomic entries)
  std::atomic<std::uint64_t> stamped_{0};
  std::atomic<std::uint64_t> stripped_{0};
  std::atomic<std::uint64_t> parse_failures_{0};
};

}  // namespace aiacc::transport
