// Repository benchmark binary.
//
//   aiacc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--inject replica|reference|target|wire|stall]
//
// Prints notes, then as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exit codes: 0 correct, 1 a correctness gate failed, 2 bad usage,
// 3 the stall watchdog fired. --inject breaks one gate (or stalls one rank)
// on purpose; run.py --selftest uses it to prove each check fires.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

Progress& GlobalProgress() {
  static Progress progress;
  return progress;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// No progress for this long while an engine runs is a stall.
constexpr auto kStallTimeout = std::chrono::seconds(10);

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value);
    out += buf;
    out += metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Fires when armed and no rank made progress for kStallTimeout: names each
/// rank's last completed iteration, reports the unfinished iterations as
/// failed, and ends the process (the stuck threads cannot be joined).
void WatchdogLoop(const Options& opt, const std::atomic<bool>& stop) {
  Progress& p = GlobalProgress();
  std::uint64_t last_beats = p.beats.load();
  auto last_change = Clock::now();
  while (!stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t beats = p.beats.load();
    if (beats != last_beats || !p.armed.load()) {
      last_beats = beats;
      last_change = Clock::now();
      continue;
    }
    if (Clock::now() - last_change < kStallTimeout) continue;
    std::int64_t started = 0;
    std::int64_t completed = -1;
    std::fprintf(stderr,
                 "STALL: workload %s seed %llu: no progress for %lld s\n",
                 opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                 static_cast<long long>(kStallTimeout.count()));
    for (int r = 0; r < kWorld; ++r) {
      const std::int64_t s = p.started[r].load();
      const std::int64_t c = p.completed[r].load();
      std::fprintf(stderr,
                   "STALL:   rank %d: last completed iteration %lld, "
                   "iterations started %lld\n",
                   r, static_cast<long long>(c - 1), static_cast<long long>(s));
      started = std::max(started, s);
      completed = completed < 0 ? c : std::min(completed, c);
    }
    const std::int64_t attempted = p.prior_attempted.load() + started;
    const std::int64_t failed = p.prior_failed.load() + (started - completed);
    PrintResult(false, attempted, failed,
                {{"completed_iter_ratio",
                  attempted > 0
                      ? static_cast<double>(attempted - failed) / attempted
                      : 0.0,
                  "ratio"}});
    std::fflush(stderr);
    _exit(3);
  }
}

bool ParseInject(const std::string& s, Inject& out) {
  if (s == "replica") out = Inject::kReplica;
  else if (s == "reference") out = Inject::kReference;
  else if (s == "target") out = Inject::kTarget;
  else if (s == "wire") out = Inject::kWire;
  else if (s == "stall") out = Inject::kStall;
  else return false;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bert_overlap|ctr_many_tensors|"
               "mlp_robust_fp16 --seed N --seconds S --trace 0|1 "
               "[--inject replica|reference|target|wire|stall]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return Usage(argv[0]);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage(argv[0]);
      opt.trace = val == "1";
    } else if (arg == "--inject") {
      if (!ParseInject(val, opt.inject)) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (opt.workload != "bert_overlap" && opt.workload != "ctr_many_tensors" &&
      opt.workload != "mlp_robust_fp16") {
    return Usage(argv[0]);
  }
  // Tracing env vars change the program under test (the engine stacks a
  // tracing transport when the tracer is on), so measured runs refuse them.
  for (const char* var : {"AIACC_TRACE", "AIACC_TRACE_LEVEL",
                          "AIACC_METRICS_DUMP", "AIACC_METRICS_PERIOD_MS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "%s is set; unset it for a measured run\n", var);
      return 2;
    }
  }

  std::atomic<bool> stop_watchdog{false};
  std::thread watchdog(WatchdogLoop, std::cref(opt), std::cref(stop_watchdog));
  const Report report = RunWorkload(opt);
  stop_watchdog.store(true);
  watchdog.join();
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());
  }
  std::fflush(stderr);
  PrintResult(report.correct, report.attempted, report.failed, report.metrics);
  return report.correct ? 0 : 1;
}
