#include "transport/tracing.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace aiacc::transport {

namespace {

/// Flow events ride at phase level: they only exist to bind the comm spans
/// the phase level already records, so verbose-only detail never gates
/// them and an off tracer costs one relaxed load.
constexpr telemetry::TraceLevel kFlowLevel = telemetry::TraceLevel::kPhase;

}  // namespace

TracingTransport::TracingTransport(Transport& inner, TracingOptions options)
    : inner_(inner),
      pool_(options.pool != nullptr ? *options.pool
                                    : common::BufferPool::Global()),
      tracer_(options.tracer != nullptr ? *options.tracer
                                        : telemetry::RuntimeTracer::Global()),
      next_msg_id_(static_cast<std::size_t>(inner.world_size())) {
  AIACC_CHECK(inner.world_size() >= 1);
}

void TracingTransport::Send(int src, int dst, int tag, Payload payload) {
  telemetry::TraceStamp stamp;
  stamp.origin = src;
  stamp.msg_id = next_msg_id_[static_cast<std::size_t>(src)].fetch_add(
      1, std::memory_order_relaxed);
  // Pooled copy with room for the trailer; the body's buffer goes back to
  // the pool, so the steady state recycles both size classes.
  Payload wire = pool_.Acquire(payload.size() + telemetry::kStampLanes);
  std::copy(payload.begin(), payload.end(), wire.begin());
  telemetry::WriteStamp(wire.data() + payload.size(), stamp);
  pool_.Release(std::move(payload));
  stamped_.fetch_add(1, std::memory_order_relaxed);
  if (tracer_.enabled(kFlowLevel)) {
    tracer_.RecordFlow("comm.flow", "msg",
                       telemetry::FlowId(stamp.origin, stamp.msg_id),
                       /*start=*/true);
  }
  inner_.Send(src, dst, tag, std::move(wire));
}

void TracingTransport::Unstamp(Payload& payload) {
  // Every frame on this stack carries a trailer, so a parse failure means
  // corruption reached the trailer (raw chaos mode with no reliable layer
  // below). Strip the lanes regardless — the body must come out at its
  // original size — but only trust parsed stamps.
  if (payload.size() >= telemetry::kStampLanes) {
    const std::optional<telemetry::TraceStamp> stamp =
        telemetry::StripStamp(payload);
    if (stamp.has_value()) {
      stripped_.fetch_add(1, std::memory_order_relaxed);
      if (tracer_.enabled(kFlowLevel)) {
        tracer_.RecordFlow("comm.flow", "msg",
                           telemetry::FlowId(stamp->origin, stamp->msg_id),
                           /*start=*/false);
      }
      return;
    }
    payload.resize(payload.size() - telemetry::kStampLanes);
  }
  parse_failures_.fetch_add(1, std::memory_order_relaxed);
}

Result<Payload> TracingTransport::Recv(int rank, int src, int tag) {
  Result<Payload> result = inner_.Recv(rank, src, tag);
  if (result.ok()) Unstamp(*result);
  return result;
}

Result<Payload> TracingTransport::RecvFor(int rank, int src, int tag,
                                          std::chrono::milliseconds timeout) {
  Result<Payload> result = inner_.RecvFor(rank, src, tag, timeout);
  if (result.ok()) Unstamp(*result);
  return result;
}

std::optional<Payload> TracingTransport::TryRecv(int rank, int src, int tag) {
  std::optional<Payload> payload = inner_.TryRecv(rank, src, tag);
  if (payload.has_value()) Unstamp(*payload);
  return payload;
}

TracingStats TracingTransport::stats() const noexcept {
  TracingStats s;
  s.stamped = stamped_.load(std::memory_order_relaxed);
  s.stripped = stripped_.load(std::memory_order_relaxed);
  s.parse_failures = parse_failures_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace aiacc::transport
