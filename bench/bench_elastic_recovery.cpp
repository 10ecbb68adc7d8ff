// Production-feature analysis (paper §IV "fault-tolerance to restart the
// training process from the last checkpoint upon node failure and elastic
// deployment by propagating training parameters into newly added computing
// nodes"): recovery-time breakdown after a node failure, the
// checkpoint-interval trade-off (write overhead vs replay on failure), and
// the in-band reliability sweep (--json): at each wire drop rate, the
// tier-1-off engine vs the reliable+unit-retry stack — recovered
// iterations/s and retransmit counts — plus a unit-retry probe (primary
// unit tags blackholed). The sweep exits non-zero unless the robust stack
// completes every iteration at every drop rate and the probe completes
// through unit retries.
#include "bench_util.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "collective/tags.h"
#include "core/threaded_engine.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_events.h"
#include "trainer/elastic.h"

using namespace aiacc;
using namespace aiacc::bench;

namespace {

/// One engine run for the reliability sweep: `iters` iterations of two
/// deterministic gradient tensors on every rank.
struct EngineRunResult {
  int completed_iters = 0;   // min across ranks
  bool aborted = false;
  double wall_s = 0.0;
  // Reliable-layer + unit-retry readings (zero when the tier is off).
  std::uint64_t retransmits = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t delivery_failures = 0;
  std::uint64_t unit_retries = 0;
};

EngineRunResult RunReliabilityEngine(int world, const core::CommConfig& config,
                                     const core::FailureConfig& failure,
                                     int iters) {
  static constexpr std::size_t kLenA = 600, kLenB = 130;
  EngineRunResult out;
  core::ThreadedAiaccEngine engine(world, config, failure);
  std::atomic<int> min_completed{iters};
  std::atomic<bool> any_failed{false};
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> a(kLenA), b(kLenB);
      auto& worker = engine.worker(r);
      if (!worker.Register("grad_a", a).ok() ||
          !worker.Register("grad_b", b).ok()) {
        any_failed.store(true);
        return;
      }
      worker.Finalize();
      int completed = 0;
      for (int it = 0; it < iters; ++it) {
        for (std::size_t i = 0; i < a.size(); ++i) {
          a[i] = static_cast<float>(r + 1) * 0.5f +
                 static_cast<float>(it) * 0.125f +
                 static_cast<float>(i) * 0.25f;
        }
        for (std::size_t i = 0; i < b.size(); ++i) {
          b[i] = static_cast<float>(r + 1) * -0.75f +
                 static_cast<float>(it * 3 + static_cast<int>(i)) * 0.0625f;
        }
        worker.PushAll();
        if (!worker.WaitIteration().ok()) {
          any_failed.store(true);
          break;
        }
        ++completed;
      }
      int expect = min_completed.load();
      while (completed < expect &&
             !min_completed.compare_exchange_weak(expect, completed)) {
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();

  out.completed_iters = min_completed.load();
  out.aborted = any_failed.load();
  if (engine.reliable_layer() != nullptr) {
    const transport::ReliableStats s = engine.reliable_layer()->stats();
    out.retransmits = s.retransmits;
    out.crc_failures = s.crc_failures;
    out.delivery_failures = s.delivery_failures;
  }
  out.unit_retries =
      engine.metrics().GetCounter("engine.unit_retries").Value();
  return out;
}

std::string JsonEngineRun(const EngineRunResult& r) {
  const double ips = r.wall_s > 0 ? r.completed_iters / r.wall_s : 0.0;
  std::string s = "{";
  s += "\"completed_iters\": " + std::to_string(r.completed_iters);
  s += ", \"aborted\": " + std::string(r.aborted ? "true" : "false");
  s += ", \"iters_per_sec\": " + FormatDouble(ips, 1);
  s += ", \"retransmits\": " + std::to_string(r.retransmits);
  s += ", \"crc_failures\": " + std::to_string(r.crc_failures);
  s += ", \"delivery_failures\": " + std::to_string(r.delivery_failures);
  s += ", \"unit_retries\": " + std::to_string(r.unit_retries);
  s += "}";
  return s;
}

core::CommConfig SweepConfig() {
  core::CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 1024;  // several units per iteration
  return config;
}

core::FailureConfig RobustFailureConfig(const transport::FaultSpec& spec) {
  core::FailureConfig f;
  f.faults = spec;
  f.collective_timeout_ms = 10000;
  f.reliable_transport = true;
  f.reliable_options.rto_initial_ms = 1;
  f.reliable_options.rto_max_ms = 8;
  f.degrade_before_abort = true;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace FILE] [--metrics-json FILE|-] "
                   "[--json FILE|-]\n",
                   argv[0]);
      return 1;
    }
  }

  // In-band reliability sweep (--json): contrast the tier-1-off engine
  // (faults surface as collective timeouts -> abort) with the
  // reliable+unit-retry stack at increasing wire drop rates, then probe
  // unit retry alone. Emitted as JSON so the result can be checked in
  // (BENCH_reliability.json) and diffed across PRs. Tier-coverage gate:
  // exits 3 (after writing the JSON) unless the robust stack completes
  // every iteration at every drop rate and the probe completes every
  // iteration through at least one unit retry.
  if (!json_path.empty()) {
    constexpr int kIters = 30;
    constexpr int kProbeIters = 6;
    bool gate_ok = true;
    const double kDropRates[] = {0.0, 0.001, 0.01, 0.05};

    std::string json = "{\n  \"config\": {\"world\": 2, \"iters\": " +
                       std::to_string(kIters) +
                       ", \"num_streams\": 2, \"granularity_bytes\": 1024, "
                       "\"tensors\": [600, 130]},\n  \"sweep\": [\n";
    bool first = true;
    for (const double rate : kDropRates) {
      std::fprintf(stderr, "drop_rate %.3f...\n", rate);
      transport::FaultSpec spec;
      spec.seed = 4242;
      spec.all_links.drop_prob = rate;

      // Fragile leg: tier 1 off. The reliable layer sequences, dedups and
      // CRC-checks but never resends, and the collective deadline is
      // finite — any drop on the critical path aborts the iteration.
      core::FailureConfig fragile;
      fragile.faults = spec;
      fragile.collective_timeout_ms = 300;
      const EngineRunResult frail =
          RunReliabilityEngine(2, SweepConfig(), fragile, kIters);

      // Robust leg: same schedule with retransmits and unit retry armed.
      const EngineRunResult robust = RunReliabilityEngine(
          2, SweepConfig(), RobustFailureConfig(spec), kIters);
      if (robust.aborted || robust.completed_iters != kIters) {
        std::fprintf(stderr, "GATE: robust leg completed %d/%d at drop %.3f\n",
                     robust.completed_iters, kIters, rate);
        gate_ok = false;
      }

      if (!first) json += ",\n";
      first = false;
      json += "    {\"drop_rate\": " + FormatDouble(rate, 3) +
              ",\n     \"fragile\": " + JsonEngineRun(frail) +
              ",\n     \"robust\": " + JsonEngineRun(robust) + "}";
    }
    json += "\n  ],\n";

    // Unit-retry probe: blackhole the primary unit tag namespace (epoch-
    // retry tags stay clean), so only tier 2 can complete the run (mirrors
    // chaos_soak_test's EngineRetriesUnitsOnFreshEpochs).
    std::fprintf(stderr, "unit-retry probe...\n");
    {
      core::CommConfig config;
      config.num_streams = 2;
      config.granularity_bytes = 4096;
      config.pipeline_depth = 4;
      transport::FaultSpec spec;
      spec.seed = 62;
      transport::TagFaults window;
      window.tag_lo = collective::kUnitTagBase;
      window.tag_hi = collective::kUnitRetryTagBase - 1;
      window.faults.drop_prob = 1.0;
      spec.per_tag.push_back(window);
      core::FailureConfig failure;
      failure.faults = spec;
      failure.collective_timeout_ms = 200;
      failure.degrade_before_abort = true;
      const EngineRunResult probe =
          RunReliabilityEngine(2, config, failure, kProbeIters);
      json += "  \"unit_retry_probe\": " + JsonEngineRun(probe) + "\n";
      if (probe.aborted || probe.completed_iters != kProbeIters ||
          probe.unit_retries < 1) {
        std::fprintf(stderr,
                     "GATE: unit-retry probe completed %d/%d with %llu "
                     "unit retries\n",
                     probe.completed_iters, kProbeIters,
                     static_cast<unsigned long long>(probe.unit_retries));
        gate_ok = false;
      }
    }
    json += "}\n";

    if (json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      std::fputs(json.c_str(), f);
      std::fclose(f);
    }
    return gate_ok ? 0 : 3;
  }

  PrintHeader("§IV — fault tolerance & elastic deployment",
              "Paper §IV 'Other features and optimizations'",
              "recovery = replacement wait + parameter broadcast + replay "
              "since last checkpoint; tighter checkpoints trade steady-state "
              "overhead for replay");

  // Recovery breakdown for a failure mid-run, per model.
  std::printf("\nnode failure at iteration 27 of 60 (64 GPUs, checkpoint "
              "every 10):\n");
  TablePrinter table({"model", "ideal", "total", "ckpt ovh", "replay",
                      "replace", "rejoin bcast"});
  for (const char* model : {"resnet50", "vgg16", "bert-large"}) {
    trainer::ElasticSpec spec;
    spec.model_name = model;
    spec.topology = trainer::MakeTopology(64);
    spec.batch_per_gpu = std::string(model) == "bert-large" ? 8 : 64;
    spec.total_iterations = 60;
    spec.checkpoint_interval = 10;
    spec.fail_at_iteration = 27;
    const auto r = trainer::SimulateElasticTraining(spec);
    auto& metrics = telemetry::MetricsRegistry::Global();
    metrics.GetCounter("elastic.cases").Add();
    metrics.GetGauge(telemetry::Scoped("elastic.total_time_s", model))
        .Set(r.total_time);
    metrics.GetGauge(telemetry::Scoped("elastic.replay_overhead_s", model))
        .Set(r.replay_overhead);
    table.AddRow({model, FormatDouble(r.ideal_time, 1) + " s",
                  FormatDouble(r.total_time, 1) + " s",
                  FormatDouble(r.checkpoint_overhead, 2) + " s",
                  FormatDouble(r.replay_overhead, 2) + " s",
                  FormatDouble(r.replacement_overhead, 1) + " s",
                  FormatDouble(r.rejoin_broadcast_time, 3) + " s"});
  }
  table.Print();

  // Checkpoint-interval trade-off on ResNet-50.
  std::printf("\ncheckpoint-interval trade-off (ResNet-50, failure @27):\n");
  TablePrinter tradeoff({"interval", "ckpt overhead", "replayed iters",
                         "total time"});
  for (int interval : {0, 5, 10, 20, 30}) {
    trainer::ElasticSpec spec;
    spec.model_name = "resnet50";
    spec.topology = trainer::MakeTopology(64);
    spec.total_iterations = 60;
    spec.checkpoint_interval = interval;
    spec.fail_at_iteration = 27;
    const auto r = trainer::SimulateElasticTraining(spec);
    tradeoff.AddRow({interval == 0 ? "none" : std::to_string(interval),
                     FormatDouble(r.checkpoint_overhead, 2) + " s",
                     std::to_string(r.iterations_replayed),
                     FormatDouble(r.total_time, 1) + " s"});
  }
  tradeoff.Print();

  // Gray failures: link-bandwidth degradation windows ("flaps") that slow
  // training without killing a rank — the failure detector never fires, but
  // throughput drops for the duration of the window.
  std::printf("\nlink flaps (VGG-16, 64 GPUs, no node failure):\n");
  TablePrinter flaps({"flap window", "bandwidth", "ideal", "total",
                      "degradation ovh"});
  struct FlapCase {
    const char* label;
    trainer::LinkFlap flap;
  };
  const FlapCase cases[] = {
      {"none", {0, 0, 1.0}},
      {"[20, 30) x0.5", {20, 30, 0.5}},
      {"[20, 30) x0.1", {20, 30, 0.1}},
      {"[10, 50) x0.5", {10, 50, 0.5}},
  };
  for (const FlapCase& c : cases) {
    trainer::ElasticSpec spec;
    spec.model_name = "vgg16";
    spec.topology = trainer::MakeTopology(64);
    spec.total_iterations = 60;
    spec.checkpoint_interval = 0;
    if (c.flap.to_iteration > c.flap.from_iteration) spec.flaps = {c.flap};
    const auto r = trainer::SimulateElasticTraining(spec);
    flaps.AddRow({c.label,
                  "x" + FormatDouble(c.flap.bandwidth_factor, 1),
                  FormatDouble(r.ideal_time, 1) + " s",
                  FormatDouble(r.total_time, 1) + " s",
                  FormatDouble(r.degradation_overhead, 2) + " s"});
  }
  flaps.Print();

  // A sample timeline.
  std::printf("\ntimeline (ResNet-50, interval 10, failure @27):\n");
  trainer::ElasticSpec spec;
  spec.model_name = "resnet50";
  spec.topology = trainer::MakeTopology(64);
  spec.total_iterations = 60;
  spec.checkpoint_interval = 10;
  spec.fail_at_iteration = 27;
  const auto sample = trainer::SimulateElasticTraining(spec);
  for (const auto& e : sample.timeline) {
    std::printf("  t=%8.2fs  %s\n", e.time, e.what.c_str());
  }

  // The simulated timeline renders through the same Chrome trace-event
  // emitter as the runtime tracer: each event opens a phase span that lasts
  // until the next event, plus a point marker at the transition.
  if (!trace_path.empty()) {
    std::vector<telemetry::SpanEvent> spans;
    std::vector<telemetry::InstantEvent> instants;
    const auto& tl = sample.timeline;
    for (std::size_t i = 0; i < tl.size(); ++i) {
      const double end =
          i + 1 < tl.size() ? tl[i + 1].time : sample.total_time;
      if (end > tl[i].time) {
        spans.push_back(
            {"recovery", tl[i].what, tl[i].time, end, "elastic", "", 0});
      }
      instants.push_back(
          {"recovery", tl[i].what, tl[i].time, "elastic", "", 0});
    }
    const Status st =
        telemetry::WriteChromeTrace(trace_path, spans, instants);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("\ntrace: %zu spans -> %s\n", spans.size(),
                trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    const std::string json =
        telemetry::MetricsRegistry::Global().Snapshot().ToJson();
    if (metrics_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(metrics_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
        return 1;
      }
      std::fputs(json.c_str(), f);
      std::fclose(f);
    }
  }
  return 0;
}
