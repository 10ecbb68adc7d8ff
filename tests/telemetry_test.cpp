// Telemetry layer tests: metrics registry (registration, snapshots, scope
// aggregation, reset), histogram bucket semantics and quantiles, the
// wall-clock tracer (span nesting, ring drain, multi-threaded record under
// the tsan preset), the zero-allocation contract of disabled and
// steady-state tracing (counter-verified via a replaced operator new), env
// parsing, and the threaded-engine integration twin of the simulator's
// comm/compute overlap check (paper Fig. 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/threaded_engine.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_events.h"
#include "telemetry/tracer.h"

// Allocation counter for the zero-overhead tests: every path through global
// operator new (the array/aligned forms funnel here by default) bumps it.
static std::atomic<std::uint64_t> g_allocations{0};

// GCC flags free() on memory from a replaced operator new even though the
// matching operator delete is replaced too — both sides use malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace aiacc {
namespace {

using telemetry::MetricsRegistry;
using telemetry::RuntimeTracer;
using telemetry::TraceLevel;
using telemetry::TraceSpan;

// ------------------------------------------------------- metrics registry --

TEST(MetricsRegistryTest, HandlesAreIdempotentAndSnapshotsSeeThem) {
  MetricsRegistry reg;
  telemetry::Counter& c = reg.GetCounter("layer.count");
  EXPECT_EQ(&c, &reg.GetCounter("layer.count"));
  c.Add();
  c.Add(4);
  reg.GetGauge("layer.level").Set(2.5);

  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("layer.count"), 5u);
  EXPECT_EQ(snap.CounterValue("no.such.metric"), 0u);
  bool saw_gauge = false;
  for (const auto& m : snap.metrics) {
    if (m.name == "layer.level") {
      saw_gauge = true;
      EXPECT_EQ(m.kind, telemetry::MetricSnapshot::Kind::kGauge);
      EXPECT_DOUBLE_EQ(m.gauge, 2.5);
    }
  }
  EXPECT_TRUE(saw_gauge);
}

TEST(MetricsRegistryTest, CallbackMetricsTrackExternalState) {
  MetricsRegistry reg;
  std::uint64_t external = 7;
  reg.AttachCallback("ext.value", [&external] { return external; });
  EXPECT_EQ(reg.Snapshot().CounterValue("ext.value"), 7u);
  external = 9;
  EXPECT_EQ(reg.Snapshot().CounterValue("ext.value"), 9u);
  reg.Reset();  // callbacks are external state: Reset must not zero them
  EXPECT_EQ(reg.Snapshot().CounterValue("ext.value"), 9u);
}

TEST(MetricsRegistryTest, AggregateMergesScopesAndResetZeroes) {
  MetricsRegistry reg;
  reg.GetCounter(telemetry::RankScoped("engine.sync_rounds", 0)).Add(3);
  reg.GetCounter(telemetry::RankScoped("engine.sync_rounds", 1)).Add(5);
  reg.GetGauge(telemetry::Scoped("tuner.best", "grid")).Set(1.0);
  reg.GetGauge(telemetry::Scoped("tuner.best", "anneal")).Set(4.0);

  const auto merged = reg.Snapshot().Aggregate();
  EXPECT_EQ(merged.CounterValue("engine.sync_rounds"), 8u);
  for (const auto& m : merged.metrics) {
    if (m.name == "tuner.best") {
      EXPECT_DOUBLE_EQ(m.gauge, 4.0);  // max wins
    }
  }

  reg.Reset();
  EXPECT_EQ(reg.Snapshot()
                .Aggregate()
                .CounterValue("engine.sync_rounds"),
            0u);
}

TEST(MetricsRegistryTest, ExportsRenderTableAndJson) {
  MetricsRegistry reg;
  reg.GetCounter("a.count").Add(2);
  reg.GetHistogram("a.lat", {1.0, 2.0}).Record(1.5);
  const auto snap = reg.Snapshot();
  const std::string table = snap.ToTable();
  EXPECT_NE(table.find("a.count"), std::string::npos);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
}

// -------------------------------------------------------------- histogram --

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  telemetry::Histogram h({1.0, 2.0, 4.0});
  h.Record(0.5);  // bucket 0 (<= 1)
  h.Record(1.0);  // bucket 0 (edges are inclusive)
  h.Record(1.5);  // bucket 1
  h.Record(4.0);  // bucket 2
  h.Record(9.0);  // overflow
  const auto snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(HistogramTest, QuantilesLandInTheRightBucket) {
  telemetry::Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.Record(0.5);
  for (int i = 0; i < 10; ++i) h.Record(1.5);
  for (int i = 0; i < 10; ++i) h.Record(3.0);
  const auto snap = h.Snapshot();
  const double p50 = snap.Quantile(50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  const double p99 = snap.Quantile(99);
  EXPECT_GT(p99, 2.0);
  EXPECT_LE(p99, 4.0);
  h.Record(100.0);  // overflow clamps to the last finite edge
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(100), 4.0);
}

TEST(HistogramTest, ExponentialBoundsDouble) {
  const auto bounds = telemetry::ExponentialBounds(1e-6, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  EXPECT_DOUBLE_EQ(bounds[3], 8e-6);
}

// ------------------------------------------------------- percentile helper --

TEST(PercentileInPlaceTest, MatchesCopyingPercentileAndSkipsResort) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  const double p50_copy = Percentile(xs, 50.0);
  std::vector<double> ys{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(PercentileInPlace(ys, 50.0), p50_copy);
  EXPECT_TRUE(std::is_sorted(ys.begin(), ys.end()));
  // Second call on the now-sorted vector is a pure lookup.
  EXPECT_DOUBLE_EQ(PercentileInPlace(ys, 100.0), 5.0);
}

// ----------------------------------------------------------------- tracer --

TEST(TracerTest, NestedSpansStayContainedAndCollectPortably) {
  RuntimeTracer tracer;
  tracer.Enable(TraceLevel::kPhase);
  {
    TraceSpan outer(tracer, TraceLevel::kPhase, "test", "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TraceSpan inner(tracer, TraceLevel::kPhase, "test", "inner", 3);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  tracer.RecordInstant("test", "mark");

  std::vector<telemetry::SpanEvent> spans;
  std::vector<telemetry::InstantEvent> instants;
  tracer.Collect(&spans, &instants);
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(instants.size(), 1u);
  const auto& inner =
      spans[0].name.find("inner") != std::string::npos ? spans[0] : spans[1];
  const auto& outer =
      spans[0].name.find("inner") != std::string::npos ? spans[1] : spans[0];
  EXPECT_EQ(inner.name, "inner#3");  // index is rendered into the name
  EXPECT_GE(inner.begin, outer.begin);
  EXPECT_LE(inner.end, outer.end);
  EXPECT_EQ(inner.track, outer.track);  // same recording thread, same lane
  EXPECT_EQ(inner.cat, "test");
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);

  tracer.Clear();
  spans.clear();
  instants.clear();
  tracer.Collect(&spans, &instants);
  EXPECT_TRUE(spans.empty());
  EXPECT_TRUE(instants.empty());
}

TEST(TracerTest, ChromeJsonKeepsNanosecondsLateInARun) {
  // 12.3456789 s after the origin, ts must still resolve to the ns (not the
  // 10 us that 6 significant digits leave there), and so must dur.
  telemetry::ChromeTraceDoc doc;
  telemetry::SpanEvent span;
  span.track = "t";
  span.name = "late";
  span.begin = 12.3456789;
  span.end = 12.3456789 + 1.5e-6;
  doc.spans.push_back(span);
  const std::string json = telemetry::ToChromeJson(doc);
  EXPECT_NE(json.find("\"ts\":12345678.900"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos) << json;
}

TEST(TracerTest, DisabledSpansRecordNothing) {
  RuntimeTracer tracer;  // never enabled
  {
    TraceSpan span(tracer, TraceLevel::kPhase, "test", "ghost");
  }
  std::vector<telemetry::SpanEvent> spans;
  std::vector<telemetry::InstantEvent> instants;
  tracer.Collect(&spans, &instants);
  EXPECT_TRUE(spans.empty());

  // Level gating: a kPhase tracer must drop verbose-only events.
  tracer.Enable(TraceLevel::kPhase);
  EXPECT_TRUE(tracer.enabled(TraceLevel::kPhase));
  EXPECT_FALSE(tracer.enabled(TraceLevel::kVerbose));
}

TEST(TracerOverheadTest, DisabledSpansAllocateNothing) {
  RuntimeTracer tracer;  // disabled
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span(tracer, TraceLevel::kPhase, "test", "off");
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST(TracerOverheadTest, SteadyStateRecordingAllocatesNothing) {
  RuntimeTracer tracer;
  tracer.Enable(TraceLevel::kVerbose);
  tracer.RecordInstant("test", "warmup");  // registers this thread's ring
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    tracer.RecordSpan("test", "hot", i, i + 1);
    tracer.RecordInstant("test", "tick");
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST(TracerTest, RingWrapsCountDroppedEventsInsteadOfGrowing) {
  RuntimeTracer::Options options;
  options.ring_capacity = 16;
  RuntimeTracer tracer(options);
  tracer.Enable(TraceLevel::kPhase);
  for (int i = 0; i < 40; ++i) tracer.RecordSpan("test", "s", i, i + 1);
  std::vector<telemetry::SpanEvent> spans;
  std::vector<telemetry::InstantEvent> instants;
  tracer.Collect(&spans, &instants);
  EXPECT_EQ(spans.size(), 16u);
  EXPECT_EQ(tracer.dropped(), 24u);
}

// Runs under the tsan preset: concurrent recording threads against one
// tracer must be race-free and lose nothing while the rings have room.
TEST(TracerTest, ConcurrentRecordingFromManyThreads) {
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 5000;
  RuntimeTracer tracer;
  tracer.Enable(TraceLevel::kVerbose);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        tracer.RecordSpan("stress", "span", i, i + 1);
        tracer.RecordInstant("stress", "mark");
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<telemetry::SpanEvent> spans;
  std::vector<telemetry::InstantEvent> instants;
  tracer.Collect(&spans, &instants);
  EXPECT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(instants.size(),
            static_cast<std::size_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ------------------------------------------------------------ env parsing --

TEST(TelemetryEnvTest, ParsesAllKnobs) {
  const auto opts = telemetry::ParseEnvOptions([](const char* key)
                                                   -> const char* {
    if (std::strcmp(key, "AIACC_TRACE") == 0) return "/tmp/out.json";
    if (std::strcmp(key, "AIACC_TRACE_LEVEL") == 0) return "verbose";
    if (std::strcmp(key, "AIACC_METRICS_DUMP") == 0) return "stderr";
    if (std::strcmp(key, "AIACC_METRICS_PERIOD_MS") == 0) return "250";
    return nullptr;
  });
  EXPECT_EQ(opts.trace_path, "/tmp/out.json");
  EXPECT_EQ(opts.trace_level, TraceLevel::kVerbose);
  EXPECT_EQ(opts.metrics_dump, "stderr");
  EXPECT_EQ(opts.metrics_period_ms, 250);
}

TEST(TelemetryEnvTest, DefaultsAndOffLevel) {
  const auto off = telemetry::ParseEnvOptions(
      [](const char* key) -> const char* {
        if (std::strcmp(key, "AIACC_TRACE") == 0) return "t.json";
        if (std::strcmp(key, "AIACC_TRACE_LEVEL") == 0) return "off";
        return nullptr;
      });
  EXPECT_EQ(off.trace_level, TraceLevel::kOff);
  const auto none =
      telemetry::ParseEnvOptions([](const char*) -> const char* {
        return nullptr;
      });
  EXPECT_TRUE(none.trace_path.empty());
  EXPECT_EQ(none.trace_level, TraceLevel::kPhase);
  EXPECT_EQ(none.metrics_period_ms, 0);
}

// ----------------------------------------- engine integration (Fig. 5 twin) --

// The threaded counterpart of the simulator's overlap assertion: with
// gradients produced incrementally (backward in progress), real collective
// spans must run concurrently with the producing window — communication
// hides inside compute.
TEST(EngineTelemetryTest, CommSpansOverlapBackwardCompute) {
  auto& tracer = RuntimeTracer::Global();
  tracer.Clear();
  tracer.Enable(TraceLevel::kPhase);

  constexpr int kWorld = 2;
  constexpr int kGrads = 3;
  constexpr std::size_t kLen = 2048;
  std::vector<std::pair<std::int64_t, std::int64_t>> compute_windows(kWorld);
  {
    core::CommConfig config;
    config.num_streams = 2;
    config.granularity_bytes = 1024;  // several units per iteration
    core::ThreadedAiaccEngine engine(kWorld, config);
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        auto& worker = engine.worker(r);
        std::vector<std::vector<float>> grads(
            kGrads, std::vector<float>(kLen, static_cast<float>(r + 1)));
        for (int g = 0; g < kGrads; ++g) {
          ASSERT_TRUE(
              worker.Register("grad" + std::to_string(g), grads[g]).ok());
        }
        worker.Finalize();
        // Staggered production: the engine starts sync rounds and unit
        // all-reduces while "backward" is still producing later gradients.
        const std::int64_t begin = tracer.NowNs();
        for (int g = 0; g < kGrads; ++g) {
          worker.Push("grad" + std::to_string(g));
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        compute_windows[r] = {begin, tracer.NowNs()};
        tracer.RecordSpan("compute", "backward", begin, tracer.NowNs());
        worker.FlushIteration();
        ASSERT_TRUE(worker.WaitIteration().ok());
      });
    }
    for (auto& t : threads) t.join();
    engine.Shutdown();  // quiesce every recording thread before Collect

    // Engine stats flowed through the registry handles.
    const auto merged = engine.metrics().Snapshot().Aggregate();
    EXPECT_GE(merged.CounterValue("engine.sync_rounds"),
              static_cast<std::uint64_t>(kWorld));
    EXPECT_GT(merged.CounterValue("engine.units_reduced"), 0u);
    EXPECT_GT(merged.CounterValue("engine.bytes_reduced"), 0u);
  }

  std::vector<telemetry::SpanEvent> spans;
  std::vector<telemetry::InstantEvent> instants;
  tracer.Collect(&spans, &instants);
  tracer.Disable();
  tracer.Clear();

  double comm_overlap = 0.0;
  for (const auto& s : spans) {
    if (s.cat != "comm" && s.cat != "engine") continue;
    for (const auto& [b_ns, e_ns] : compute_windows) {
      const double b = static_cast<double>(b_ns) * 1e-9;
      const double e = static_cast<double>(e_ns) * 1e-9;
      const double lo = std::max(s.begin, b);
      const double hi = std::min(s.end, e);
      if (hi > lo) comm_overlap += hi - lo;
    }
  }
  EXPECT_GT(comm_overlap, 0.0)
      << "no collective span overlapped the gradient-producing window";
  bool saw_grad_ready = false;
  for (const auto& i : instants) {
    if (i.name == "grad-ready") saw_grad_ready = true;
  }
  EXPECT_TRUE(saw_grad_ready);
}

}  // namespace
}  // namespace aiacc
