// Tests of the observability tier (DESIGN.md §7): the wire trace context,
// the causal tracing transport decorator, the multi-rank trace of one
// engine run, and the fault flight recorder — including the end-to-end
// contracts: on the one clock all ranks share, every flow end follows its
// start, and an injected-fault engine run leaves a flight dump naming the
// failing rank/tag.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "collective/tags.h"
#include "common/buffer_pool.h"
#include "common/logging.h"
#include "core/threaded_engine.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_context.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/tracing.h"

namespace aiacc {
namespace {

using telemetry::ChromeTraceDoc;
using telemetry::FlightRecorder;
using telemetry::FlightSeverity;
using telemetry::RuntimeTracer;
using telemetry::TraceLevel;
using telemetry::TraceStamp;

// ------------------------------------------------------------ trace context

TEST(TraceContextTest, StampRoundTripAndMagicRejection) {
  TraceStamp stamp;
  stamp.origin = 3;
  stamp.msg_id = 0xBEEF1234u;
  float lanes[telemetry::kStampLanes];
  telemetry::WriteStamp(lanes, stamp);
  const auto parsed = telemetry::ParseStamp(lanes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->origin, 3);
  EXPECT_EQ(parsed->msg_id, 0xBEEF1234u);

  lanes[0] += 1.0f;  // magic off by one: must not parse
  EXPECT_FALSE(telemetry::ParseStamp(lanes).has_value());
}

TEST(TraceContextTest, StripStampShrinksInPlaceAndLeavesBodyIntact) {
  TraceStamp stamp;
  stamp.origin = 1;
  stamp.msg_id = 42;
  std::vector<float> frame = {1.0f, 2.0f, 3.0f};
  frame.resize(3 + telemetry::kStampLanes);
  telemetry::WriteStamp(frame.data() + 3, stamp);

  const auto parsed = telemetry::StripStamp(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->msg_id, 42u);
  ASSERT_EQ(frame.size(), 3u);
  EXPECT_EQ(frame[2], 3.0f);

  // An unstamped frame (too short, or trailer does not verify) is left
  // untouched.
  std::vector<float> plain = {4.0f, 5.0f, 6.0f};
  EXPECT_FALSE(telemetry::StripStamp(plain).has_value());
  EXPECT_EQ(plain.size(), 3u);
}

TEST(TraceContextTest, FlowIdsAreUniquePerOriginAndMessage) {
  EXPECT_NE(telemetry::FlowId(0, 7), telemetry::FlowId(1, 7));
  EXPECT_NE(telemetry::FlowId(2, 7), telemetry::FlowId(2, 8));
  // origin -1 would collide with origin 0's namespace if ranks were not
  // offset by one inside FlowId.
  EXPECT_NE(telemetry::FlowId(0, 0), 0u);
}

// -------------------------------------------------------- tracing transport

TEST(TracingTransportTest, BindsRecvToSendViaFlowEvents) {
  RuntimeTracer tracer;
  tracer.Enable(TraceLevel::kPhase);
  transport::InProcTransport inner(2);
  transport::TracingOptions opts;
  opts.tracer = &tracer;
  transport::TracingTransport tr(inner, opts);

  tr.Send(0, 1, 7, {1.0f, 2.0f, 3.0f});
  const auto got = tr.Recv(1, 0, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (transport::Payload{1.0f, 2.0f, 3.0f}));

  const auto stats = tr.stats();
  EXPECT_EQ(stats.stamped, 1u);
  EXPECT_EQ(stats.stripped, 1u);
  EXPECT_EQ(stats.parse_failures, 0u);

  tracer.Disable();
  ChromeTraceDoc doc;
  tracer.Collect(&doc);
  ASSERT_EQ(doc.flows.size(), 2u);
  const auto& a = doc.flows[0];
  const auto& b = doc.flows[1];
  EXPECT_EQ(a.id, b.id);  // both ends derived the id from the stamp alone
  EXPECT_NE(a.start, b.start);
}

TEST(TracingTransportTest, CorruptedTrailerStillYieldsOriginalBody) {
  // Chaos with no reliable layer: every frame has one bit flipped, and
  // with a 1-lane body four of every five flips land in the trailer. The
  // decorator must strip the lanes whether or not the stamp parses, so
  // every body comes out at its sent size.
  RuntimeTracer tracer;
  transport::InProcTransport inner(2);
  transport::FaultSpec spec;
  spec.seed = 7;
  spec.all_links.corrupt_prob = 1.0;
  transport::FaultyTransport faulty(inner, spec);
  transport::TracingOptions opts;
  opts.tracer = &tracer;
  transport::TracingTransport tr(faulty, opts);

  constexpr int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    tr.Send(0, 1, 3, {static_cast<float>(i)});
    const auto got = tr.Recv(1, 0, 3);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 1u) << "message " << i;
  }
  EXPECT_EQ(faulty.stats().corrupted, static_cast<std::uint64_t>(kSends));
  const auto stats = tr.stats();
  EXPECT_EQ(stats.stamped, static_cast<std::uint64_t>(kSends));
  EXPECT_EQ(stats.stripped + stats.parse_failures,
            static_cast<std::uint64_t>(kSends));
  EXPECT_GT(stats.parse_failures, 0u);
}

TEST(TracingTransportTest, SteadyStateRecyclesBothSizeClasses) {
  // The stamped wire copy and the released body must both cycle through
  // the pool: after warmup, a fixed communication pattern performs no
  // payload allocations (pool misses stay flat) even with stamping on.
  common::BufferPool pool;
  RuntimeTracer tracer;  // disabled: measures the wire-format cost alone
  transport::InProcTransport inner(2);
  transport::TracingOptions opts;
  opts.pool = &pool;
  opts.tracer = &tracer;
  transport::TracingTransport tr(inner, opts);

  constexpr std::size_t kElems = 256;
  auto round = [&] {
    transport::Payload body = pool.Acquire(kElems);
    std::fill(body.begin(), body.end(), 1.0f);
    tr.Send(0, 1, 5, std::move(body));
    auto got = tr.Recv(1, 0, 5);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), kElems);
    pool.Release(std::move(*got));
  };
  for (int i = 0; i < 4; ++i) round();  // warm both size classes
  const auto warm = pool.stats();
  for (int i = 0; i < 64; ++i) round();
  const auto steady = pool.stats();
  EXPECT_EQ(steady.misses, warm.misses)
      << "tracing steady state allocated fresh buffers";
}

TEST(TracingTransportTest, EngineStacksTracingLayerIffTracerOn) {
  core::CommConfig config;
  config.num_streams = 1;
  auto& tracer = RuntimeTracer::Global();
  tracer.Disable();
  {
    core::ThreadedAiaccEngine engine(2, config);
    EXPECT_EQ(engine.tracing_layer(), nullptr);
    engine.Shutdown();
  }
  tracer.Enable(TraceLevel::kPhase);
  {
    core::ThreadedAiaccEngine engine(2, config);
    EXPECT_NE(engine.tracing_layer(), nullptr);
    engine.Shutdown();
  }
  tracer.Disable();
  tracer.Clear();
}

// ------------------------------------------------------- one-clock multi-rank

TEST(OneClockTraceTest, FlowEdgesAreCausallyConsistent) {
  constexpr int kWorld = 3;
  constexpr int kIters = 3;
  constexpr std::size_t kElems = 1024;

  auto& tracer = RuntimeTracer::Global();
  tracer.Clear();
  tracer.Enable(TraceLevel::kPhase);

  core::CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 1024;
  {
    core::ThreadedAiaccEngine engine(kWorld, config);
    ASSERT_NE(engine.tracing_layer(), nullptr);
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        SetThreadLogContext(r, "worker");
        auto& worker = engine.worker(r);
        std::vector<std::vector<float>> tensors(
            2, std::vector<float>(kElems, static_cast<float>(r + 1)));
        for (std::size_t t = 0; t < tensors.size(); ++t) {
          char name[32];
          std::snprintf(name, sizeof(name), "grad%03zu", t);
          ASSERT_TRUE(worker.Register(name, tensors[t]).ok());
        }
        worker.Finalize();
        for (int it = 0; it < kIters; ++it) {
          telemetry::TraceSpan iteration(tracer, TraceLevel::kPhase,
                                         "engine.iteration", "iteration", it);
          worker.PushAll();
          ASSERT_TRUE(worker.WaitIteration().ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    engine.Shutdown();
  }
  tracer.Disable();

  ChromeTraceDoc doc;
  tracer.Collect(&doc);
  // No ring overwrote its oldest events: an overwritten flow start would
  // make the checks below unreliable.
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.Clear();
  // Exactly one start per id; every end finds its start and, on the one
  // clock every rank shares, never precedes it (zero tolerance).
  std::map<std::uint64_t, double> start_ts;
  for (const auto& flow : doc.flows) {
    if (!flow.start) continue;
    EXPECT_TRUE(start_ts.emplace(flow.id, flow.time).second)
        << "flow id " << flow.id << " has more than one start";
  }
  std::size_t checked = 0;
  for (const auto& flow : doc.flows) {
    if (flow.start) continue;
    const auto it = start_ts.find(flow.id);
    ASSERT_NE(it, start_ts.end()) << "dangling flow end " << flow.id;
    EXPECT_GE(flow.time, it->second) << "flow " << flow.id
                                     << " ends before its start";
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, RingKeepsMostRecentEvents) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(FlightSeverity::kWarn, "test", "evt", /*rank=*/i);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 7u);
  EXPECT_EQ(events.back().seq, 10u);
  EXPECT_EQ(events.back().rank, 9);
  EXPECT_STREQ(events.back().component, "test");
}

TEST(FlightRecorderTest, ToJsonCarriesTheTaxonomy) {
  FlightRecorder recorder(8);
  recorder.Record(FlightSeverity::kError, "collective.channel", "quarantine",
                  /*rank=*/2, /*channel=*/1, /*tag=*/4096);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"collective.channel\""),
            std::string::npos);
  EXPECT_NE(json.find("\"channel\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tag\":4096"), std::string::npos);
}

TEST(FlightRecorderTest, EnvDumpFirstFaultWins) {
  const std::string dir = ::testing::TempDir() + "obs_flight_env";
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("AIACC_FLIGHT_DIR", dir.c_str(), 1), 0);
  FlightRecorder recorder(8);
  recorder.Record(FlightSeverity::kFatal, "test", "boom");
  EXPECT_TRUE(recorder.DumpToEnvDir("first").ok());
  EXPECT_TRUE(std::filesystem::exists(dir + "/flight-first.json"));
  // Later faults are echoes of the first: no second file.
  EXPECT_TRUE(recorder.DumpToEnvDir("second").ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/flight-second.json"));
  unsetenv("AIACC_FLIGHT_DIR");
}

TEST(FlightRecorderTest, InjectedFaultAbortLeavesDumpNamingFailure) {
  const std::string dir = ::testing::TempDir() + "obs_flight_abort";
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("AIACC_FLIGHT_DIR", dir.c_str(), 1), 0);

  const int world = 2;
  core::CommConfig config;
  config.num_streams = 1;
  core::FailureConfig failure;
  failure.collective_timeout_ms = 100;
  // Kill the whole unit tag namespace, retry epochs included (sync rounds,
  // below kUnitTagBase, stay healthy): the first unit all-reduce
  // deterministically times out, records unit-failed with its tag, and
  // escalates to an engine abort.
  transport::FaultSpec faults;
  transport::TagFaults window;
  window.tag_lo = collective::kUnitTagBase;
  window.tag_hi = std::numeric_limits<int>::max();
  window.faults.drop_prob = 1.0;
  faults.per_tag.push_back(window);
  failure.faults = faults;
  core::ThreadedAiaccEngine engine(world, config, failure);

  std::vector<std::thread> threads;
  std::vector<Status> last(world, Status::Ok());
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      std::vector<float> grad(16, 1.0f);
      ASSERT_TRUE(worker.Register("g", grad).ok());
      worker.Finalize();
      worker.PushAll();
      last[static_cast<std::size_t>(r)] = worker.WaitIteration();
    });
  }
  for (auto& t : threads) t.join();
  engine.Shutdown();
  unsetenv("AIACC_FLIGHT_DIR");

  EXPECT_TRUE(engine.aborted());
  for (int r = 0; r < world; ++r) {
    EXPECT_FALSE(last[static_cast<std::size_t>(r)].ok());
  }

  // The abort dumped the ring; the post-mortem names the fatal abort and
  // the failing unit collective with its rank and tag.
  const std::string path = dir + "/flight-abort.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no flight dump at " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"severity\":\"fatal\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"what\":\"abort\""), std::string::npos) << json;
  const std::size_t unit_failed = json.find("\"what\":\"unit-failed\"");
  ASSERT_NE(unit_failed, std::string::npos) << json;
  const std::size_t rank_pos = json.find("\"rank\":", unit_failed);
  ASSERT_NE(rank_pos, std::string::npos);
  EXPECT_GE(std::atoi(json.c_str() + rank_pos + 7), 0)
      << "unit-failed event does not name the failing rank: " << json;
  const std::size_t tag_pos = json.find("\"tag\":", unit_failed);
  ASSERT_NE(tag_pos, std::string::npos);
  EXPECT_GT(std::atoi(json.c_str() + tag_pos + 6), 0)
      << "unit-failed event does not name the failing tag: " << json;
}

}  // namespace
}  // namespace aiacc
