// Hot-path microbench for the zero-allocation collective path: the pooled
// ring all-reduce over per-slot-CV wakeups, and MultiChannelAllReduce on
// the persistent process-wide worker pool (thread count reported to show
// reuse).
//
// Reported: ring all-reduce msgs/sec, multi-channel all-reduce GB/s,
// steady-state payload allocations (pool misses) per iteration, and futile
// wakeups per 1k messages. `--json` prints a machine-readable
// summary; `--smoke` runs a small configuration and exits non-zero unless
// the pooled steady state performed *zero* payload allocations AND the
// depth-4 pipelined ring moves at least as many msgs/s as depth 1 on a
// large-payload round (wired into ctest). `--pipeline-sweep` replaces the
// standard phases with a Comm::pipeline_depth sweep over {1, 2, 4, 8} on
// the ring, reporting per-depth msgs/s, per-all-reduce latency, and the
// latency speedup against depth 1 (the checked-in BENCH_hotpath.json
// baseline comes from this mode under `release-bench`).
// Read the two metrics together: a depth-d round intentionally moves d
// times as many (d-times-smaller) messages for the same reduction, so
// msgs/s scales with depth by construction — the latency column is the
// honest overlap signal. `--trace FILE` records a phase-level wall-clock
// trace of the whole run (Chrome trace-event JSON, opens in Perfetto) and
// prints a per-category summary table; `--metrics-json FILE` dumps the
// process metrics registry after the run (`-` = stdout). Quote numbers
// from the `release-bench` preset (-O3 -DNDEBUG).
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/logging.h"
#include "core/threaded_engine.h"
#include "telemetry/merge.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "transport/inproc.h"

namespace {

using aiacc::common::BufferPool;
using aiacc::telemetry::MetricsRegistry;
using aiacc::telemetry::RuntimeTracer;

struct BenchConfig {
  int world = 8;
  std::size_t ring_elems = 1u << 20;  // 4 MiB of gradients per rank
  int ring_warmup = 3;
  int ring_iters = 20;
  std::size_t mc_elems = 1u << 20;
  int mc_channels = 4;
  int mc_iters = 10;
};

struct PhaseResult {
  double seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t payload_allocs = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t futile_wakeups = 0;

  [[nodiscard]] double MsgsPerSec() const {
    return seconds > 0 ? static_cast<double>(messages) / seconds : 0.0;
  }
  [[nodiscard]] double FutilePerKiloMsg() const {
    return messages > 0 ? 1e3 * static_cast<double>(futile_wakeups) /
                              static_cast<double>(messages)
                        : 0.0;
  }
};

/// Drive `world` rank threads through `iters` timed rounds of `op` after
/// `warmup` untimed rounds; counters are sampled on the start and finish
/// lines so the deltas cover exactly the measured window.
template <typename RankOp>
PhaseResult TimeRanks(aiacc::transport::InProcTransport& tr,
                      const BufferPool& pool, int world, int warmup,
                      int iters, RankOp op) {
  std::barrier<> gate(static_cast<std::ptrdiff_t>(world) + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < warmup; ++i) op(r);
      gate.arrive_and_wait();  // warmed up; main samples counters
      gate.arrive_and_wait();  // start line
      for (int i = 0; i < iters; ++i) op(r);
      gate.arrive_and_wait();  // finish line
    });
  }
  gate.arrive_and_wait();
  const std::uint64_t allocs0 = pool.stats().misses;
  const std::uint64_t msgs0 = tr.TotalMessages();
  const std::uint64_t wire0 = tr.TotalPayloadBytes();
  const auto wake0 = tr.wake_counters();
  const auto t0 = std::chrono::steady_clock::now();
  gate.arrive_and_wait();
  gate.arrive_and_wait();
  const auto t1 = std::chrono::steady_clock::now();
  for (auto& t : threads) t.join();

  PhaseResult result;
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.messages = tr.TotalMessages() - msgs0;
  result.wire_bytes = tr.TotalPayloadBytes() - wire0;
  result.payload_allocs = pool.stats().misses - allocs0;
  const auto wake1 = tr.wake_counters();
  result.wakeups = wake1.wakeups - wake0.wakeups;
  result.futile_wakeups = wake1.futile_wakeups - wake0.futile_wakeups;
  return result;
}

PhaseResult RunRing(BufferPool& pool, const BenchConfig& cfg,
                    int pipeline_depth = 1) {
  aiacc::transport::InProcTransport tr(cfg.world);
  return TimeRanks(
      tr, pool, cfg.world, cfg.ring_warmup, cfg.ring_iters, [&](int r) {
        thread_local std::vector<float> data;
        data.assign(cfg.ring_elems, static_cast<float>(r + 1));
        aiacc::collective::Comm comm{&tr,   r, cfg.world, /*tag_base=*/1,
                                     /*timeout_ms=*/0, &pool,
                                     pipeline_depth};
        const aiacc::Status st = aiacc::collective::RingAllReduce(
            comm, data, aiacc::collective::ReduceOp::kSum);
        if (!st.ok()) {
          std::fprintf(stderr, "ring all-reduce failed: %s\n",
                       st.ToString().c_str());
          std::exit(2);
        }
      });
}

struct DepthResult {
  int depth = 1;
  PhaseResult phase;
};

/// The ring at every pipeline depth, identical workload.
std::vector<DepthResult> RunPipelineSweep(BufferPool& pool,
                                          const BenchConfig& cfg) {
  std::vector<DepthResult> out;
  for (int depth : {1, 2, 4, 8}) {
    out.push_back({depth, RunRing(pool, cfg, depth)});
  }
  return out;
}

PhaseResult RunMultiChannel(BufferPool& pool, const BenchConfig& cfg) {
  aiacc::transport::InProcTransport tr(cfg.world);
  return TimeRanks(
      tr, pool, cfg.world, /*warmup=*/2, cfg.mc_iters, [&](int r) {
        thread_local std::vector<float> data;
        data.assign(cfg.mc_elems, static_cast<float>(r + 1));
        aiacc::collective::Comm comm{&tr,   r, cfg.world, /*tag_base=*/1,
                                     /*timeout_ms=*/0, &pool};
        const aiacc::Status st = aiacc::collective::MultiChannelAllReduce(
            comm, data, aiacc::collective::ReduceOp::kAvg, cfg.mc_channels);
        if (!st.ok()) {
          std::fprintf(stderr, "multi-channel all-reduce failed: %s\n",
                       st.ToString().c_str());
          std::exit(2);
        }
      });
}

/// Multi-rank observability smoke (`--trace-dir DIR`): run a 4-rank,
/// 2-stream traced engine phase with message stamping forced on and a
/// known synthetic clock skew per rank, then write per-rank traces
/// (`trace.r<k>.json`, each shifted by its rank's skew so the files look
/// like they came from machines with disagreeing clocks) plus the aligned
/// `trace.merged.json` recovered by telemetry::MergeTraces from the
/// cross-rank flow edges alone. Exits non-zero when no flow edges were
/// captured or the merged timeline still has a causality violation beyond
/// the estimator's tolerance — this is what the `observability` ctest and
/// CI lane consume (tools/trace_analyze.py + tools/trace_lint.py read the
/// files afterwards).
int RunTraceSmoke(const std::string& dir) {
  using aiacc::telemetry::ChromeTraceDoc;
  using aiacc::telemetry::TraceLevel;
  constexpr int kWorld = 4;
  constexpr int kIters = 6;
  constexpr std::size_t kElems = 4096;
  constexpr std::size_t kTensors = 4;
  // Synthetic per-rank clock offsets (seconds): what MergeTraces must
  // recover. Millisecond-scale, both signs, rank 0 pinned at zero.
  const std::vector<double> skew_s = {0.0, 1.5e-3, -0.8e-3, 2.2e-3};

  auto& tracer = RuntimeTracer::Global();
  tracer.Clear();
  tracer.Enable(TraceLevel::kPhase);

  aiacc::core::CommConfig config;
  config.num_streams = 2;           // >= 2 comm channels per rank
  config.granularity_bytes = 8192;  // several units per iteration
  config.pipeline_depth = 2;
  aiacc::core::FailureConfig failure;
  failure.trace_messages = 1;  // stamp even if the tracer flips off early
  failure.trace_rank_skew_ns.resize(kWorld);
  for (int r = 0; r < kWorld; ++r) {
    failure.trace_rank_skew_ns[static_cast<std::size_t>(r)] =
        static_cast<std::int64_t>(skew_s[static_cast<std::size_t>(r)] * 1e9);
  }

  std::atomic<bool> failed{false};
  {
    aiacc::core::ThreadedAiaccEngine engine(kWorld, config, failure);
    std::vector<std::thread> threads;
    threads.reserve(kWorld);
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        aiacc::SetThreadLogContext(r, "worker");
        auto& worker = engine.worker(r);
        std::vector<std::vector<float>> tensors(
            kTensors, std::vector<float>(kElems, static_cast<float>(r + 1)));
        for (std::size_t t = 0; t < kTensors; ++t) {
          char name[32];
          std::snprintf(name, sizeof(name), "grad%03zu", t);
          if (!worker.Register(name, tensors[t]).ok()) {
            failed.store(true);
            return;
          }
        }
        worker.Finalize();
        for (int it = 0; it < kIters; ++it) {
          aiacc::telemetry::TraceSpan iteration(
              tracer, TraceLevel::kPhase, "engine.iteration", "iteration",
              it);
          {
            // "Backward pass": real writes, so compute time is not zero.
            aiacc::telemetry::TraceSpan compute(tracer, TraceLevel::kPhase,
                                                "compute", "compute", it);
            for (auto& tensor : tensors) {
              for (std::size_t i = 0; i < tensor.size(); ++i) {
                tensor[i] = static_cast<float>(r + 1) +
                            static_cast<float>(i % 7) * 0.125f;
              }
            }
          }
          worker.PushAll();
          if (!worker.WaitIteration().ok()) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    engine.Shutdown();
  }
  tracer.Disable();
  if (failed.load()) {
    std::fprintf(stderr, "trace smoke: engine iteration failed\n");
    return 1;
  }

  ChromeTraceDoc doc;
  tracer.Collect(&doc);
  auto by_rank = aiacc::telemetry::SplitByRankLabel(doc);
  std::vector<aiacc::telemetry::RankTrace> traces;
  traces.reserve(kWorld);
  for (int r = 0; r < kWorld; ++r) {
    ChromeTraceDoc rank_doc = std::move(by_rank[r]);
    // Skew this rank's clock: the per-rank files really disagree, and the
    // merge has real offsets to recover.
    aiacc::telemetry::ShiftTimes(rank_doc,
                                 skew_s[static_cast<std::size_t>(r)]);
    const std::string path =
        dir + "/trace.r" + std::to_string(r) + ".json";
    const aiacc::Status st =
        aiacc::telemetry::WriteChromeTrace(path, rank_doc);
    if (!st.ok()) {
      std::fprintf(stderr, "trace smoke: %s: %s\n", path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    traces.push_back({r, std::move(rank_doc)});
  }
  const aiacc::telemetry::MergeReport report =
      aiacc::telemetry::MergeTraces(traces);
  const std::string merged_path = dir + "/trace.merged.json";
  const aiacc::Status st =
      aiacc::telemetry::WriteChromeTrace(merged_path, report.merged);
  if (!st.ok()) {
    std::fprintf(stderr, "trace smoke: %s: %s\n", merged_path.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  std::printf("trace smoke: %d ranks, %d iters -> %s\n", kWorld, kIters,
              dir.c_str());
  std::printf("  flow edges matched: %zu  (unmatched halves: %zu)\n",
              report.flow_edges, report.unmatched_flows);
  for (int r = 0; r < kWorld; ++r) {
    std::printf("  rank %d: injected skew %+8.3f ms, recovered offset "
                "%+8.3f ms\n",
                r, 1e3 * skew_s[static_cast<std::size_t>(r)],
                1e3 * report.offset_seconds[static_cast<std::size_t>(r)]);
  }
  std::printf("  max causality violation after correction: %.1f us\n",
              1e6 * report.max_causality_violation);

  if (report.flow_edges == 0) {
    std::fprintf(stderr,
                 "TRACE SMOKE FAILURE: no cross-rank flow edges captured\n");
    return 1;
  }
  // The injected skews are milliseconds; the estimator should leave at
  // most in-process scheduling noise. 1ms of residual means it failed.
  if (report.max_causality_violation > 1e-3) {
    std::fprintf(stderr,
                 "TRACE SMOKE FAILURE: %.1f us causality violation after "
                 "skew correction\n",
                 1e6 * report.max_causality_violation);
    return 1;
  }
  return 0;
}

int WriteText(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  bool pipeline_sweep = false;
  std::string trace_path;
  std::string trace_dir;
  std::string metrics_path;
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--pipeline-sweep") == 0) {
      pipeline_sweep = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      cfg.ring_iters = std::atoi(argv[++i]);
      cfg.mc_iters = cfg.ring_iters;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--smoke] [--pipeline-sweep] "
                   "[--iters N] [--trace FILE] [--trace-dir DIR] "
                   "[--metrics-json FILE|-]\n",
                   argv[0]);
      return 1;
    }
  }
  if (!trace_dir.empty()) {
    // Standalone mode: the multi-rank causal-trace smoke replaces the
    // standard phases (DIR must exist; files land as trace.r<k>.json and
    // trace.merged.json).
    return RunTraceSmoke(trace_dir);
  }
  if (smoke) {
    cfg.world = 4;
    cfg.ring_elems = 8192;
    cfg.ring_iters = 5;
    cfg.mc_elems = 8192;
    cfg.mc_channels = 2;
    cfg.mc_iters = 3;
  }

  if (!trace_path.empty()) {
    RuntimeTracer::Global().Enable(aiacc::telemetry::TraceLevel::kPhase);
  }

  // Bench-local pool: the alloc counters then cover exactly this workload.
  BufferPool pool;

  std::vector<DepthResult> sweep;
  PhaseResult pooled;
  if (pipeline_sweep) {
    sweep = RunPipelineSweep(pool, cfg);
    const double lat1_us =
        1e6 * sweep.front().phase.seconds / cfg.ring_iters;
    if (json) {
      std::printf("{\"world\": %d, \"ring_elems\": %zu, \"ring_iters\": %d,\n"
                  " \"pipeline_sweep\": [\n",
                  cfg.world, cfg.ring_elems, cfg.ring_iters);
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        const DepthResult& r = sweep[i];
        const double lat_us = 1e6 * r.phase.seconds / cfg.ring_iters;
        std::printf("  {\"depth\": %d, \"msgs_per_sec\": %.0f, "
                    "\"unit_latency_us\": %.1f, "
                    "\"latency_speedup_vs_depth1\": %.2f, "
                    "\"wire_bytes\": %llu}%s\n",
                    r.depth, r.phase.MsgsPerSec(), lat_us,
                    lat_us > 0 ? lat1_us / lat_us : 0.0,
                    static_cast<unsigned long long>(r.phase.wire_bytes),
                    i + 1 < sweep.size() ? "," : "");
      }
      std::printf(" ]}\n");
    } else {
      std::printf("pipeline-depth sweep: %d ranks, %zu floats, %d iters\n",
                  cfg.world, cfg.ring_elems, cfg.ring_iters);
      for (const DepthResult& r : sweep) {
        const double lat_us = 1e6 * r.phase.seconds / cfg.ring_iters;
        std::printf("  depth %d: %12.0f msgs/s  %10.1f us/all-reduce  "
                    "(%.2fx vs depth 1)\n",
                    r.depth, r.phase.MsgsPerSec(), lat_us,
                    lat_us > 0 ? lat1_us / lat_us : 0.0);
      }
    }
  } else {
    pooled = RunRing(pool, cfg);

    const PhaseResult mc = RunMultiChannel(pool, cfg);
    const double mc_gb_per_sec =
        mc.seconds > 0
            ? static_cast<double>(cfg.mc_iters) *
                  static_cast<double>(cfg.mc_elems) * sizeof(float) /
                  mc.seconds / 1e9
            : 0.0;
    const double allocs_per_iter =
        static_cast<double>(pooled.payload_allocs) / cfg.ring_iters;

    if (json) {
      std::printf(
          "{\"world\": %d, \"ring_elems\": %zu, \"ring_iters\": %d,\n"
          " \"pooled_msgs_per_sec\": %.0f, \"pooled_allocs_per_iter\": "
          "%.1f,\n"
          " \"pooled_futile_wakeups_per_1k_msgs\": %.1f, "
          "\"pooled_wire_bytes\": %llu,\n"
          " \"multichannel_gb_per_sec\": %.3f, "
          "\"multichannel_workers\": %d}\n",
          cfg.world, cfg.ring_elems, cfg.ring_iters, pooled.MsgsPerSec(),
          allocs_per_iter, pooled.FutilePerKiloMsg(),
          static_cast<unsigned long long>(pooled.wire_bytes), mc_gb_per_sec,
          aiacc::collective::MultiChannelWorkerCount());
    } else {
      std::printf("hot path bench: %d ranks, %zu floats, %d iters\n",
                  cfg.world, cfg.ring_elems, cfg.ring_iters);
      std::printf("  ring all-reduce: %10.0f msgs/s  (%.1f allocs/iter, "
                  "%.1f futile wakes/1k msgs, %llu wire bytes)\n",
                  pooled.MsgsPerSec(), allocs_per_iter,
                  pooled.FutilePerKiloMsg(),
                  static_cast<unsigned long long>(pooled.wire_bytes));
      std::printf("  multi-channel all-reduce (%d channels): %.3f GB/s on %d "
                  "persistent workers\n",
                  cfg.mc_channels, mc_gb_per_sec,
                  aiacc::collective::MultiChannelWorkerCount());
    }
  }

  if (!trace_path.empty()) {
    auto& tracer = RuntimeTracer::Global();
    tracer.Disable();  // every recording thread joined above: safe to flush
    const aiacc::Status st = tracer.WriteTo(trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::vector<aiacc::telemetry::SpanEvent> spans;
    std::vector<aiacc::telemetry::InstantEvent> instants;
    tracer.Collect(&spans, &instants);
    std::printf("trace: %zu spans, %zu instants, %llu dropped -> %s\n",
                spans.size(), instants.size(),
                static_cast<unsigned long long>(tracer.dropped()),
                trace_path.c_str());
    std::fputs(
        aiacc::telemetry::SummaryTable(aiacc::telemetry::SummarizeSpans(spans))
            .c_str(),
        stdout);
  }
  if (!metrics_path.empty()) {
    const int rc = WriteText(
        metrics_path, MetricsRegistry::Global().Snapshot().ToJson());
    if (rc != 0) return rc;
  }

  if (smoke) {
    if (!pipeline_sweep && pooled.payload_allocs != 0) {
      std::fprintf(stderr,
                   "SMOKE FAILURE: pooled steady state performed %llu payload "
                   "allocations (want 0)\n",
                   static_cast<unsigned long long>(pooled.payload_allocs));
      return 1;
    }
    // Pipelining must never lose message throughput on a large payload:
    // depth 4 moves 4x the messages for the same reduction, so even heavy
    // per-slice overhead leaves msgs/s(depth 4) >= msgs/s(depth 1). A
    // timing inversion therefore only means scheduling noise on a loaded
    // machine — re-measure a couple of times before declaring failure.
    BenchConfig big = cfg;
    if (!pipeline_sweep) {
      big.ring_elems = 1u << 16;  // large enough that slices stay SIMD-sized
      big.ring_warmup = 1;
      big.ring_iters = 3;
    }
    bool depth_ok = false;
    PhaseResult d1;
    PhaseResult d4;
    for (int attempt = 0; attempt < 3 && !depth_ok; ++attempt) {
      if (pipeline_sweep && attempt == 0) {
        for (const DepthResult& r : sweep) {
          if (r.depth == 1) d1 = r.phase;
          if (r.depth == 4) d4 = r.phase;
        }
      } else {
        d1 = RunRing(pool, big, 1);
        d4 = RunRing(pool, big, 4);
      }
      depth_ok = d4.MsgsPerSec() >= d1.MsgsPerSec();
    }
    if (!depth_ok) {
      std::fprintf(stderr,
                   "SMOKE FAILURE: pipelined depth-4 ring moved %.0f msgs/s, "
                   "below the depth-1 baseline's %.0f msgs/s\n",
                   d4.MsgsPerSec(), d1.MsgsPerSec());
      return 1;
    }
  }
  return 0;
}
