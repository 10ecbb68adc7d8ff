#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/file_io.h"
#include "common/logging.h"

namespace aiacc::telemetry {
namespace {

std::int64_t SteadyNowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping for the component/what literals (they are
/// controlled identifiers, but corruption-proofing is cheap).
std::string Escape(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out += '\\';
    out += *p;
  }
  return out;
}

}  // namespace

const char* FlightSeverityName(FlightSeverity severity) noexcept {
  switch (severity) {
    case FlightSeverity::kInfo: return "info";
    case FlightSeverity::kWarn: return "warn";
    case FlightSeverity::kError: return "error";
    case FlightSeverity::kFatal: return "fatal";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : origin_ns_(SteadyNowNs()), slots_(capacity) {
  AIACC_CHECK(capacity > 0);
}

void FlightRecorder::Record(FlightSeverity severity, const char* component,
                            const char* what, int rank, int channel, int tag,
                            std::int64_t detail0,
                            std::int64_t detail1) noexcept {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % slots_.size()];
  // Invalidate first so a racing reader never attributes the old seq to
  // the new payload, then publish with a release store.
  slot.committed.store(0, std::memory_order_relaxed);
  slot.event.seq = seq + 1;
  slot.event.mono_ns = SteadyNowNs() - origin_ns_;
  slot.event.severity = severity;
  slot.event.component = component;
  slot.event.what = what;
  slot.event.rank = rank;
  slot.event.channel = channel;
  slot.event.tag = tag;
  slot.event.detail0 = detail0;
  slot.event.detail1 = detail1;
  slot.committed.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  events.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const std::uint64_t committed =
        slot.committed.load(std::memory_order_acquire);
    if (committed == 0) continue;
    FlightEvent copy = slot.event;
    // Torn-slot check: the stamp must still match after copying the
    // payload (a wrapping writer invalidates before rewriting).
    if (slot.committed.load(std::memory_order_acquire) != committed ||
        copy.seq != committed) {
      continue;
    }
    events.push_back(copy);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

std::string FlightRecorder::ToJson() const {
  const std::vector<FlightEvent> events = Snapshot();
  std::ostringstream out;
  out << "{\"recorded\":" << recorded() << ",\"capacity\":" << slots_.size()
      << ",\"events\":[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "{\"seq\":" << e.seq << ",\"t_ns\":" << e.mono_ns
        << ",\"severity\":\"" << FlightSeverityName(e.severity)
        << "\",\"component\":\"" << Escape(e.component) << "\",\"what\":\""
        << Escape(e.what) << "\",\"rank\":" << e.rank
        << ",\"channel\":" << e.channel << ",\"tag\":" << e.tag
        << ",\"detail0\":" << e.detail0 << ",\"detail1\":" << e.detail1
        << "}";
  }
  out << "]}";
  return out.str();
}

Status FlightRecorder::DumpTo(const std::string& path) const {
  return common::WriteFileAtomic(path, ToJson());
}

Status FlightRecorder::DumpToEnvDir(const char* reason) {
  const char* dir = std::getenv("AIACC_FLIGHT_DIR");
  if (dir == nullptr || dir[0] == '\0') return Status::Ok();
  if (env_dumped_.exchange(true, std::memory_order_acq_rel)) {
    return Status::Ok();  // first fault wins; echoes are not post-mortems
  }
  const std::string path =
      std::string(dir) + "/flight-" + reason + ".json";
  const Status st = DumpTo(path);
  if (st.ok()) {
    LOG_WARN << "flight recorder dumped to " << path;
  } else {
    LOG_WARN << "flight recorder dump to " << path
             << " failed: " << st.ToString();
  }
  return st;
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

}  // namespace aiacc::telemetry
