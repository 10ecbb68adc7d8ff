// Always-on flight recorder: a fixed ring of recent high-severity runtime
// events (faults, unit retries, retransmit exhaustion, abort reasons) that
// turns "collective aborted with non-OK status" into a causal story
// (DESIGN.md §7).
//
// Unlike the tracer — opt-in, high-volume, span-oriented — the flight
// recorder is always recording and deliberately tiny: Record claims a slot
// with one atomic fetch_add and writes a POD event (two string *literals*,
// a few integers), so the steady-state cost is nanoseconds and zero
// allocations; the preallocated ring simply keeps the most recent
// `capacity` events.
//
// Severity taxonomy (DESIGN.md §7 documents the mapping per component):
//   kInfo   state transitions that are part of healing (no runtime event
//           records this level today)
//   kWarn   in-band repair work (unit retry, CRC discard) — the run is
//           still healthy but paying for faults
//   kError  a layer gave up locally (retransmit exhaustion, unit failure,
//           collective failure on one rank)
//   kFatal  the run is over (engine abort, injected rank crash)
//
// Dumping: DumpToEnvDir writes the ring as JSON to $AIACC_FLIGHT_DIR —
// called automatically on engine abort (where a run turns into a
// post-mortem), and only for the first such fault per process (later faults are echoes of the first). The analyzer
// (tools/trace_analyze.py --flight) merges the dump into its report.
//
// Torn slots: Record never blocks, so a reader racing a wrapping writer
// can observe a half-written slot. Each slot carries a sequence stamp
// written last (release) and checked by Snapshot; a torn slot is skipped.
// This is a post-mortem tool — best effort on the events still in flight,
// exact on everything that happened before the fault.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace aiacc::telemetry {

enum class FlightSeverity : int { kInfo = 0, kWarn = 1, kError = 2, kFatal = 3 };

[[nodiscard]] const char* FlightSeverityName(FlightSeverity severity) noexcept;

/// One recorded event. `component`/`what` are string literals (the ring
/// stores the pointers). rank/channel/tag are -1 when not applicable;
/// detail0/detail1 are event-specific (seq, epoch, level, status code...).
struct FlightEvent {
  std::uint64_t seq = 0;       // global order (1-based; 0 = empty slot)
  std::int64_t mono_ns = 0;    // steady-clock ns since recorder creation
  FlightSeverity severity = FlightSeverity::kInfo;
  const char* component = "";  // "engine", "transport.reliable", ...
  const char* what = "";       // "abort", "unit-retry", ...
  int rank = -1;
  int channel = -1;
  int tag = -1;
  std::int64_t detail0 = 0;
  std::int64_t detail1 = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 256);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event (lock-free, zero-alloc; literals only for
  /// `component`/`what`).
  void Record(FlightSeverity severity, const char* component,
              const char* what, int rank = -1, int channel = -1, int tag = -1,
              std::int64_t detail0 = 0, std::int64_t detail1 = 0) noexcept;

  /// The surviving events in recording order (torn slots skipped).
  [[nodiscard]] std::vector<FlightEvent> Snapshot() const;

  /// Render a snapshot as a JSON document (schema consumed by
  /// tools/trace_analyze.py --flight).
  [[nodiscard]] std::string ToJson() const;

  /// Write ToJson() to `path`.
  Status DumpTo(const std::string& path) const;

  /// When $AIACC_FLIGHT_DIR is set, write `<dir>/flight-<reason>.json` —
  /// once per process (the first fault wins; later calls are no-ops
  /// returning Ok). `reason` must be a short filename-safe literal
  /// ("abort", "channel-failure"). Without the env var: a no-op.
  Status DumpToEnvDir(const char* reason);

  /// Total events ever recorded (>= capacity means the ring wrapped).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  /// Process-wide recorder (what the engine and transport layers use).
  static FlightRecorder& Global();

 private:
  struct Slot {
    /// 0 = never written; otherwise the event's seq, stored last with
    /// release order so a reader that sees it sees the whole event.
    std::atomic<std::uint64_t> committed{0};
    FlightEvent event;
  };

  const std::int64_t origin_ns_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> env_dumped_{false};
};

}  // namespace aiacc::telemetry
