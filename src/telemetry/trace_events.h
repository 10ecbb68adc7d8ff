// Shared trace-event model and Chrome trace-event JSON emitter. Two
// producers feed it: the simulated engine's sim::Tracer (simulated seconds,
// one lane per logical track) and the threaded runtime's RuntimeTracer
// (wall-clock seconds, one lane per recording thread, semantic category per
// span). Both render through the same functions here so the sim and the
// real runtime emit one schema — a trace from either opens identically in
// chrome://tracing / Perfetto and passes tools/trace_lint.py.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace aiacc::telemetry {

/// A closed interval on one lane. `track` is the display lane (thread name
/// in the viewer); `cat` is an optional semantic category ("comm",
/// "compute", ...) used for filtering and overlap math. Times in seconds.
struct SpanEvent {
  std::string track;
  std::string name;
  double begin = 0.0;
  double end = 0.0;
  std::string cat;
  /// Optional single argument rendered as Chrome "args":{key: value}
  /// (empty key = no args). Integer-valued: producers record counters and
  /// ids (priority, bypass counts), never strings, so the rings stay
  /// fixed-size.
  std::string arg_key;
  std::int64_t arg_val = 0;
};

/// A point event on one lane.
struct InstantEvent {
  std::string track;
  std::string name;
  double time = 0.0;
  std::string cat;
  /// Optional single argument (same contract as SpanEvent::arg_key).
  std::string arg_key;
  std::int64_t arg_val = 0;
};

/// One end of a cross-lane causal edge (Chrome flow event). A flow `id`
/// names the edge: the producing side emits `start == true` (ph "s",
/// usually a transport send), every consuming side emits `start == false`
/// (ph "f", the matching recv). Viewers draw an arrow from the slice
/// enclosing the start to the slice enclosing the end, which is how a recv
/// span on rank 3 points back at the send span on rank 2 that fed it.
struct FlowEvent {
  std::string track;
  std::string name;
  double time = 0.0;
  std::string cat;
  std::uint64_t id = 0;
  bool start = true;
};

/// A renderable trace: events plus per-lane ring-overwrite counts. Every
/// event renders under pid 1 — all ranks are threads of one process, and
/// a lane's rank is in its "r<k>/..." label. `dropped_by_track` makes a
/// truncated trace detectable from the JSON alone (emitted as
/// "trace_dropped_events" metadata records plus an otherData total).
struct ChromeTraceDoc {
  std::vector<SpanEvent> spans;
  std::vector<InstantEvent> instants;
  std::vector<FlowEvent> flows;
  std::map<std::string, std::uint64_t> dropped_by_track;
};

/// Chrome trace-event format: {"traceEvents":[{"ph":"X",...},...]}.
/// Tracks become thread ids (tid) in first-appearance order, seconds become
/// microseconds, and a thread_name metadata record labels every lane.
[[nodiscard]] std::string ToChromeJson(const std::vector<SpanEvent>& spans,
                                       const std::vector<InstantEvent>& instants);
[[nodiscard]] std::string ToChromeJson(const ChromeTraceDoc& doc);

/// Write the rendered JSON to `path`.
Status WriteChromeTrace(const std::string& path,
                        const std::vector<SpanEvent>& spans,
                        const std::vector<InstantEvent>& instants);
Status WriteChromeTrace(const std::string& path, const ChromeTraceDoc& doc);

/// Union of busy time over the spans whose track OR category equals `key`
/// (overlapping spans are merged, not double-counted). The overlap
/// assertions in tests are written against this.
[[nodiscard]] double BusyTime(const std::vector<SpanEvent>& spans,
                              const std::string& key);

/// Per-track/category duration statistics for a flushed trace: span count,
/// total busy seconds, and p50/p99 span durations (PercentileInPlace over
/// the collected durations — no copies).
struct TrackSummary {
  std::string key;   // track or category
  std::size_t count = 0;
  double busy_seconds = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Summaries grouped by category when set, else by track; sorted by key.
[[nodiscard]] std::vector<TrackSummary> SummarizeSpans(
    const std::vector<SpanEvent>& spans);

/// Render summaries as the repo's fixed-width table (bench `--trace` output).
[[nodiscard]] std::string SummaryTable(const std::vector<TrackSummary>& rows);

}  // namespace aiacc::telemetry
