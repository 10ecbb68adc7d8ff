#include "telemetry/trace_events.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/stats.h"

namespace aiacc::telemetry {
namespace {

/// Minimal JSON string escaping (quotes/backslashes/control chars).
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ToChromeJson(const ChromeTraceDoc& doc) {
  // Stable track -> tid mapping in first-appearance order; every lane
  // lives under pid 1.
  std::map<std::string, int> tids;
  auto tid_of = [&](const std::string& track) {
    auto [it, inserted] = tids.emplace(track, static_cast<int>(tids.size()));
    return it->second;
  };

  std::ostringstream out;
  // Microseconds in fixed point to the nanosecond: the stream's default 6
  // significant digits would coarsen ts to 10 us past 10 s into a run.
  out << std::fixed << std::setprecision(3);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
  };
  auto cat_field = [&](const std::string& cat) {
    if (!cat.empty()) out << "\"cat\":\"" << Escape(cat) << "\",";
  };
  auto args_field = [&](const std::string& key, std::int64_t val) {
    if (!key.empty()) {
      out << "\"args\":{\"" << Escape(key) << "\":" << val << "},";
    }
  };
  for (const SpanEvent& s : doc.spans) {
    sep();
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid_of(s.track) << ",";
    cat_field(s.cat);
    args_field(s.arg_key, s.arg_val);
    out << "\"name\":\"" << Escape(s.name) << "\",\"ts\":" << s.begin * 1e6
        << ",\"dur\":" << (s.end - s.begin) * 1e6 << "}";
  }
  for (const InstantEvent& i : doc.instants) {
    sep();
    out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid_of(i.track) << ",";
    cat_field(i.cat);
    args_field(i.arg_key, i.arg_val);
    out << "\"s\":\"t\",\"name\":\"" << Escape(i.name)
        << "\",\"ts\":" << i.time * 1e6 << "}";
  }
  // Flow edges: the start binds to the slice enclosing it ("s"), each end
  // binds to its enclosing slice with bp:"e" (Chrome's "bind to enclosing"
  // mode, required for f events whose slice began before the flow did).
  for (const FlowEvent& f : doc.flows) {
    sep();
    out << "{\"ph\":\"" << (f.start ? 's' : 'f') << "\",";
    if (!f.start) out << "\"bp\":\"e\",";
    out << "\"pid\":1,\"tid\":" << tid_of(f.track) << ",";
    cat_field(f.cat);
    out << "\"name\":\"" << Escape(f.name) << "\",\"id\":\"0x" << std::hex
        << f.id << std::dec << "\",\"ts\":" << f.time * 1e6 << "}";
  }
  // Track-name metadata so viewers show human-readable lanes. Lanes that
  // only appear in the drop accounting still get a tid (and so a name).
  for (const auto& [track, count] : doc.dropped_by_track) tid_of(track);
  for (const auto& [track, tid] : tids) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << Escape(track) << "\"}}";
  }
  // Per-lane ring-overwrite counts (satellite: truncated traces must be
  // detectable from the JSON alone).
  std::uint64_t dropped_total = 0;
  for (const auto& [track, count] : doc.dropped_by_track) {
    dropped_total += count;
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid_of(track)
        << ",\"name\":\"trace_dropped_events\",\"args\":{\"count\":" << count
        << "}}";
  }
  out << "],\"otherData\":{\"dropped_events\":" << dropped_total << "}}";
  return out.str();
}

std::string ToChromeJson(const std::vector<SpanEvent>& spans,
                         const std::vector<InstantEvent>& instants) {
  ChromeTraceDoc doc;
  doc.spans = spans;
  doc.instants = instants;
  return ToChromeJson(doc);
}

Status WriteChromeTrace(const std::string& path, const ChromeTraceDoc& doc) {
  return common::WriteFileAtomic(path, ToChromeJson(doc));
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<SpanEvent>& spans,
                        const std::vector<InstantEvent>& instants) {
  ChromeTraceDoc doc;
  doc.spans = spans;
  doc.instants = instants;
  return WriteChromeTrace(path, doc);
}

double BusyTime(const std::vector<SpanEvent>& spans, const std::string& key) {
  // Merge overlapping spans that match the key and sum their union.
  std::vector<std::pair<double, double>> intervals;
  for (const SpanEvent& s : spans) {
    if (s.track == key || s.cat == key) intervals.emplace_back(s.begin, s.end);
  }
  std::sort(intervals.begin(), intervals.end());
  double busy = 0.0;
  double cur_begin = 0.0;
  double cur_end = -1.0;
  for (const auto& [b, e] : intervals) {
    if (b > cur_end) {
      if (cur_end > cur_begin) busy += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_begin) busy += cur_end - cur_begin;
  return busy;
}

std::vector<TrackSummary> SummarizeSpans(const std::vector<SpanEvent>& spans) {
  std::map<std::string, std::vector<double>> durations;
  for (const SpanEvent& s : spans) {
    durations[s.cat.empty() ? s.track : s.cat].push_back(s.end - s.begin);
  }
  std::vector<TrackSummary> rows;
  rows.reserve(durations.size());
  for (auto& [key, ds] : durations) {
    TrackSummary row;
    row.key = key;
    row.count = ds.size();
    row.busy_seconds = BusyTime(spans, key);
    row.p50_seconds = PercentileInPlace(ds, 50.0);  // sorts ds once,
    row.p99_seconds = PercentileInPlace(ds, 99.0);  // second call is a lookup
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string SummaryTable(const std::vector<TrackSummary>& rows) {
  TablePrinter table({"track", "spans", "busy", "p50", "p99"});
  for (const TrackSummary& r : rows) {
    table.AddRow({r.key, std::to_string(r.count),
                  FormatDouble(r.busy_seconds * 1e3, 3) + " ms",
                  FormatDouble(r.p50_seconds * 1e6, 1) + " us",
                  FormatDouble(r.p99_seconds * 1e6, 1) + " us"});
  }
  return table.ToString();
}

}  // namespace aiacc::telemetry
