#include "telemetry/tracer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace aiacc::telemetry {
namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// Metric scope for a lane label ('/' is not legal in a metric scope, so
/// "r3/comm1" becomes "r3.comm1").
std::string DroppedCounterName(const std::string& label) {
  std::string scope = label;
  std::replace(scope.begin(), scope.end(), '/', '.');
  return "telemetry.trace.dropped_events@" + scope;
}

/// Per-thread ring cache. One hot slot (the tracer this thread recorded to
/// last) plus a spill list, so a thread alternating between tracers (tests
/// use local tracers alongside Global) re-finds its ring without
/// re-registering. Tracer ids are never reused, so a stale entry for a
/// destroyed tracer can never be matched — only tolerated as dead weight.
struct TlsRings {
  std::uint64_t hot_id = 0;
  void* hot_ring = nullptr;
  std::vector<std::pair<std::uint64_t, void*>> all;
};

thread_local TlsRings t_rings;

}  // namespace

RuntimeTracer::RuntimeTracer(const Options& options)
    : options_(options),
      tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      origin_(std::chrono::steady_clock::now()) {
  AIACC_CHECK(options_.ring_capacity > 0);
}

RuntimeTracer::~RuntimeTracer() = default;

void RuntimeTracer::Enable(TraceLevel level) {
  level_.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::int64_t RuntimeTracer::NowNs() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

RuntimeTracer::ThreadRing& RuntimeTracer::LocalRing() noexcept {
  if (t_rings.hot_id == tracer_id_) {
    return *static_cast<ThreadRing*>(t_rings.hot_ring);
  }
  for (const auto& [id, ring] : t_rings.all) {
    if (id == tracer_id_) {
      t_rings.hot_id = id;
      t_rings.hot_ring = ring;
      return *static_cast<ThreadRing*>(ring);
    }
  }
  // First record from this thread: register a lane (cold path, allocates).
  std::string label = ThreadLogLabel();
  common::MutexLock lock(mu_);
  if (label.empty()) label = "thread-" + std::to_string(rings_.size());
  rings_.push_back(
      std::make_unique<ThreadRing>(std::move(label), options_.ring_capacity));
  ThreadRing* ring = rings_.back().get();
  t_rings.all.emplace_back(tracer_id_, ring);
  t_rings.hot_id = tracer_id_;
  t_rings.hot_ring = ring;
  return *ring;
}

void RuntimeTracer::Push(const Event& e) noexcept {
  ThreadRing& ring = LocalRing();
  const std::uint64_t seq = ring.head.fetch_add(1, std::memory_order_relaxed);
  if (seq >= ring.events.size()) {
    // Overwriting: make the truncation observable (satellite of the causal
    // tracing work — silent wraps made traces lie about coverage).
    if (ring.dropped_counter == nullptr) {
      ring.dropped_counter =
          &MetricsRegistry::Global().GetCounter(DroppedCounterName(ring.label));
    }
    ring.dropped_counter->Add();
  }
  ring.events[seq % ring.events.size()] = e;
}

void RuntimeTracer::RecordSpan(const char* cat, const char* name,
                               std::int64_t begin_ns, std::int64_t end_ns,
                               int index, const char* arg_key,
                               std::int64_t arg_val) noexcept {
  Push(Event{cat, name, begin_ns, end_ns, index, kSpan, 0, arg_key, arg_val});
}

void RuntimeTracer::RecordInstant(const char* cat, const char* name,
                                  int index, const char* arg_key,
                                  std::int64_t arg_val) noexcept {
  const std::int64_t now = NowNs();
  Push(Event{cat, name, now, now, index, kInstant, 0, arg_key, arg_val});
}

void RuntimeTracer::RecordFlow(const char* cat, const char* name,
                               std::uint64_t flow_id, bool start) noexcept {
  const std::int64_t now = NowNs();
  Push(Event{cat, name, now, now, -1, start ? kFlowStart : kFlowEnd,
             flow_id, nullptr, 0});
}

void RuntimeTracer::Collect(std::vector<SpanEvent>* spans,
                            std::vector<InstantEvent>* instants) const {
  CollectImpl(spans, instants, nullptr, nullptr);
}

void RuntimeTracer::Collect(ChromeTraceDoc* doc) const {
  CollectImpl(&doc->spans, &doc->instants, &doc->flows,
              &doc->dropped_by_track);
}

void RuntimeTracer::CollectImpl(
    std::vector<SpanEvent>* spans, std::vector<InstantEvent>* instants,
    std::vector<FlowEvent>* flows,
    std::map<std::string, std::uint64_t>* dropped_by_track) const {
  common::MutexLock lock(mu_);
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t n =
        std::min<std::uint64_t>(head, ring->events.size());
    if (dropped_by_track != nullptr && head > ring->events.size()) {
      (*dropped_by_track)[ring->label] += head - ring->events.size();
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const Event& e = ring->events[i];
      std::string name = e.name;
      if (e.index >= 0) name += "#" + std::to_string(e.index);
      const std::string arg_key =
          e.arg_key != nullptr ? std::string(e.arg_key) : std::string();
      switch (e.kind) {
        case kInstant:
          if (instants != nullptr) {
            instants->push_back(InstantEvent{ring->label, std::move(name),
                                             e.begin_ns * 1e-9, e.cat,
                                             arg_key, e.arg_val});
          }
          break;
        case kFlowStart:
        case kFlowEnd:
          if (flows != nullptr) {
            flows->push_back(FlowEvent{ring->label, std::move(name),
                                       e.begin_ns * 1e-9, e.cat, e.flow_id,
                                       e.kind == kFlowStart});
          }
          break;
        default:
          if (spans != nullptr) {
            spans->push_back(SpanEvent{ring->label, std::move(name),
                                       e.begin_ns * 1e-9, e.end_ns * 1e-9,
                                       e.cat, arg_key, e.arg_val});
          }
      }
    }
  }
}

std::string RuntimeTracer::ToChromeJson() const {
  ChromeTraceDoc doc;
  Collect(&doc);
  return telemetry::ToChromeJson(doc);
}

Status RuntimeTracer::WriteTo(const std::string& path) const {
  ChromeTraceDoc doc;
  Collect(&doc);
  return WriteChromeTrace(path, doc);
}

double RuntimeTracer::BusyTime(const std::string& key) const {
  std::vector<SpanEvent> spans;
  Collect(&spans, nullptr);
  return telemetry::BusyTime(spans, key);
}

std::uint64_t RuntimeTracer::dropped() const {
  common::MutexLock lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head > ring->events.size()) dropped += head - ring->events.size();
  }
  return dropped;
}

void RuntimeTracer::Clear() {
  common::MutexLock lock(mu_);
  for (const auto& ring : rings_) {
    ring->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace aiacc::telemetry
