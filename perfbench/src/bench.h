// Shared pieces of the repository benchmark: options, the metric report,
// timing helpers, the stall watchdog, and the entry points of the workload
// harness (workloads.cpp) and the per-layer replays (replay.cpp).
//
// The benchmark measures ThreadedAiaccEngine from outside: it drives the
// public Worker API from one thread per rank, times its own calls, and reads
// the engine's public counters. Nothing here adds tracing inside the program.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/codec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr int kWorld = 4;

/// Fault injected on purpose, to prove that a gate or the watchdog fires.
enum class Inject { kNone, kReplica, kReference, kTarget, kWire, kStall };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  Inject inject = Inject::kNone;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports: gate outcomes, iteration counts, and
/// the metrics of the requested kind (end-to-end or per-layer).
struct Report {
  bool correct = true;
  std::vector<std::string> failures;  // one line per failed gate
  std::vector<std::string> notes;     // human-readable context lines
  std::int64_t attempted = 0;         // training iterations started
  std::int64_t failed = 0;            // ... not completed OK on every rank
  std::vector<Metric> metrics;

  void Fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Liveness of the run in progress, read by the watchdog. Rank threads bump
/// `beats` whenever they finish a step (finalize, an iteration); a watchdog
/// that sees no beat for its timeout declares a stall.
struct Progress {
  std::atomic<std::uint64_t> beats{0};
  std::atomic<bool> armed{false};
  std::atomic<std::int64_t> started[kWorld];    // iterations started
  std::atomic<std::int64_t> completed[kWorld];  // iterations completed OK
  // Totals of the engine runs already finished in this process.
  std::atomic<std::int64_t> prior_attempted{0};
  std::atomic<std::int64_t> prior_failed{0};

  void Reset() {
    for (int r = 0; r < kWorld; ++r) {
      started[r].store(0);
      completed[r].store(0);
    }
    beats.fetch_add(1);
  }
};

Progress& GlobalProgress();

/// Median and other order statistics of a sample (copied, then sorted).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Process CPU time (user + sys) in seconds.
double CpuSeconds();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Run one workload end to end: set-up episodes, the measured run, the
/// correctness gates and, with opt.trace, the per-layer replays.
Report RunWorkload(const Options& opt);

/// Shapes of one workload's traffic, replayed in isolation through the
/// public collective, compress and transport functions.
struct ReplayShape {
  std::size_t unit_floats = 0;        // one all-reduce unit
  int depth = 1;                      // ring pipeline depth
  aiacc::compress::CodecSpec codec{};
  int streams = 1;                    // concurrent communication streams
  std::size_t iteration_floats = 0;   // gradient floats of one iteration
  std::size_t sync_words = 1;         // words of one readiness sync round
};

/// Per-layer metrics of the collective, compress and transport layers.
void RunReplays(const ReplayShape& shape, Report& report);

/// Payload bytes a raw-fp32 unit all-reduce sends, divided by the bytes the
/// same unit sends with `shape.codec`: the wire compression of the codec as
/// the collective really ships it. Fails the report if an all-reduce fails.
double MeasureWireRatio(const ReplayShape& shape, Report& report);

}  // namespace perfbench
