// Chaos-soak: long randomized fault schedules driven through the in-band
// fault tiers — tier 1 reliable transport retransmission
// (transport/reliable.h) and tier 2 engine unit retries on fresh tag epochs
// (threaded_engine.cpp) — asserting bit-exact results throughout, with *no*
// checkpoint recovery involved.
//
// Every schedule is seeded. A soak cell's FaultSpec is a pure function of
// its place in the sweep, so a failing cell reruns with the same spec by
// seed: its failure message names the cell, the faults injected into it
// and the command that reruns it. The seed sweep is bounded by AIACC_CHAOS_SEEDS
// (CI sets it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collective/tags.h"
#include "collective/threaded.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "core/threaded_engine.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"

namespace aiacc {
namespace {

using collective::MultiChannelAllReduce;
using core::CommConfig;
using core::FailureConfig;
using core::ThreadedAiaccEngine;
using transport::FaultSpec;
using transport::FaultyTransport;
using transport::InProcTransport;
using transport::LinkFaults;
using transport::ReliableTransport;
using transport::TagFaults;

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

/// Fail with everything needed to rerun soak cell `s`: its spec, what the
/// fault layer injected into it, and the command that replays it (cells
/// before it pass, so sweeping seeds 0..s reaches it with the same spec).
void ReportFailedCell(int s, double rate, int channels, int depth,
                      const FaultSpec& spec, const transport::FaultStats& st) {
  ADD_FAILURE() << "chaos cell failed: s=" << s << " seed=" << spec.seed
                << " rate=" << std::setprecision(3) << rate
                << " channels=" << channels << " depth=" << depth
                << "\n  injected: dropped=" << st.dropped
                << " duplicated=" << st.duplicated
                << " reordered=" << st.reordered
                << " corrupted=" << st.corrupted << " of " << st.delivered
                << " delivered frames (retransmit timing moves these slightly"
                   " run to run)"
                << "\n  rerun: AIACC_CHAOS_SEEDS=" << s + 1
                << " ./build/tests/chaos_soak_test"
                   " --gtest_filter=ChaosSoakTest.CollectiveSoakMatrix";
}

std::vector<std::vector<float>> MakeRankData(int world, std::size_t len,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(static_cast<std::size_t>(world));
  for (auto& v : data) {
    v.resize(len);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-6.0, 6.0));
  }
  return data;
}

/// One soak cell: `iters` multi-channel all-reduces over the given
/// transport, each compared bit-exactly against the same sequence on a
/// clean transport. Returns false on any mismatch or non-OK status.
bool RunSequence(transport::Transport& tr, int world, int channels,
                 int depth, int iters, std::uint64_t data_seed,
                 std::int64_t timeout_ms) {
  std::atomic<bool> all_ok{true};
  for (int it = 0; it < iters && all_ok.load(); ++it) {
    auto ref = MakeRankData(world, 2048, data_seed + static_cast<std::uint64_t>(it));
    {
      InProcTransport clean(world);
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          collective::Comm comm{&clean, r, world, collective::kSyncTag, 0};
          comm.pipeline_depth = depth;
          const Status st =
              MultiChannelAllReduce(comm, ref[static_cast<std::size_t>(r)],
                                    collective::ReduceOp::kAvg, channels);
          if (!st.ok()) all_ok.store(false);
        });
      }
      for (auto& t : threads) t.join();
    }
    auto data =
        MakeRankData(world, 2048, data_seed + static_cast<std::uint64_t>(it));
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collective::Comm comm{&tr, r, world, collective::kSyncTag, timeout_ms};
        comm.pipeline_depth = depth;
        const Status st =
            MultiChannelAllReduce(comm, data[static_cast<std::size_t>(r)],
                                  collective::ReduceOp::kAvg, channels);
        if (!st.ok()) all_ok.store(false);
      });
    }
    for (auto& t : threads) t.join();
    if (data != ref) all_ok.store(false);
  }
  return all_ok.load();
}

// ------------------------------------------------------- the soak matrix --

TEST(ChaosSoakTest, CollectiveSoakMatrix) {
  const int seeds = EnvInt("AIACC_CHAOS_SEEDS", 2);
  const int world = 3;
  const struct {
    int channels;
    int depth;
  } shapes[] = {{1, 1}, {2, 4}, {4, 8}};
  for (int s = 0; s < seeds; ++s) {
    for (const double rate : {0.002, 0.01, 0.05}) {
      for (const auto& shape : shapes) {
        FaultSpec spec;
        spec.seed = 9000 + static_cast<std::uint64_t>(s) * 131 +
                    static_cast<std::uint64_t>(rate * 1000) * 7 +
                    static_cast<std::uint64_t>(shape.channels);
        spec.all_links.drop_prob = rate;
        spec.all_links.dup_prob = rate;
        spec.all_links.reorder_prob = rate;
        spec.all_links.corrupt_prob = rate / 4.0;
        InProcTransport inner(world);
        FaultyTransport faulty(inner, spec);
        ReliableTransport rel(faulty);
        if (!RunSequence(rel, world, shape.channels, shape.depth,
                         /*iters=*/4, /*data_seed=*/spec.seed,
                         /*timeout_ms=*/30000)) {
          ReportFailedCell(s, rate, shape.channels, shape.depth, spec,
                           faulty.stats());
          return;
        }
      }
    }
  }
}

// ------------------------------------------------- engine through chaos --

/// Run `iters` iterations of the threaded engine with two per-rank gradient
/// tensors filled from a deterministic (rank, iteration) pattern; returns
/// each rank's tensor contents after every iteration (the averages the
/// engine wrote), concatenated. Any non-OK WaitIteration stops the run;
/// `*failed` reports it.
std::vector<std::vector<float>> RunEngine(
    int world, CommConfig config, FailureConfig failure, int iters,
    bool* failed,
    const std::function<void(ThreadedAiaccEngine&)>& inspect = {}) {
  static constexpr std::size_t kLenA = 600, kLenB = 130;
  auto engine =
      std::make_unique<ThreadedAiaccEngine>(world, config, failure);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(world));
  std::atomic<bool> any_failed{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> a(kLenA), b(kLenB);
      auto& worker = engine->worker(r);
      ASSERT_TRUE(worker.Register("grad_a", a).ok());
      ASSERT_TRUE(worker.Register("grad_b", b).ok());
      worker.Finalize();
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
        const Status st = worker.WaitIteration();
        if (!st.ok()) {
          any_failed.store(true);
          break;
        }
        // Every iteration's averages, not just the last: a retry that
        // went wrong mid-run must not hide behind the next iteration.
        auto& result = out[static_cast<std::size_t>(r)];
        result.insert(result.end(), a.begin(), a.end());
        result.insert(result.end(), b.begin(), b.end());
      }
    });
  }
  for (auto& t : threads) t.join();
  *failed = any_failed.load();
  if (inspect) inspect(*engine);
  return out;
}

// The acceptance contrast: at a drop rate where the tier-1-off engine
// aborts, the reliable stack completes every iteration bit-exactly.
TEST(ChaosSoakTest, EngineSurvivesDropChaosWhereSeedAborts) {
  const int world = 2;
  const int iters = 30;
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 1024;  // several units per iteration

  // Reference: clean engine.
  bool failed = false;
  const auto clean = RunEngine(world, config, FailureConfig{}, iters, &failed);
  ASSERT_FALSE(failed);

  FaultSpec spec;
  spec.seed = 61;
  spec.all_links.drop_prob = 0.01;

  // Tier 1 off: the reliable layer never resends, so a loss becomes a recv
  // deadline and an abort. This is what retransmission exists to prevent.
  FailureConfig fragile;
  fragile.faults = spec;
  fragile.collective_timeout_ms = 300;
  std::uint64_t fragile_retransmits = 0;
  RunEngine(world, config, fragile, iters, &failed,
            [&](ThreadedAiaccEngine& engine) {
              ASSERT_NE(engine.reliable_layer(), nullptr);
              fragile_retransmits =
                  engine.reliable_layer()->stats().retransmits;
            });
  EXPECT_TRUE(failed) << "expected the unprotected engine to abort at 1% drop";
  EXPECT_EQ(fragile_retransmits, 0u) << "tier 1 off still resent frames";

  // Reliable + unit-retry stack: same chaos, full completion, exact data.
  // A short iteration burst can outrun the default 10ms retransmit timer
  // (a drop in the final rto window is repaired after the run ends), so
  // run the full 30-iteration schedule with a tight rto — every drop is
  // then provably repaired in-band, inside the run.
  FailureConfig robust;
  robust.faults = spec;
  robust.collective_timeout_ms = 10000;
  robust.reliable_transport = true;
  robust.reliable_options.rto_initial_ms = 1;
  robust.reliable_options.rto_max_ms = 8;
  robust.degrade_before_abort = true;
  std::uint64_t retransmits = 0;
  std::uint64_t dropped = 0;
  const auto survived =
      RunEngine(world, config, robust, iters, &failed,
                [&](ThreadedAiaccEngine& engine) {
                  ASSERT_NE(engine.reliable_layer(), nullptr);
                  retransmits = engine.reliable_layer()->stats().retransmits;
                  dropped = engine.fault_injector()->stats().dropped;
                });
  EXPECT_FALSE(failed) << "reliable engine aborted under 1% drop";
  EXPECT_EQ(survived, clean) << "repaired traffic changed the numerics";
  EXPECT_GT(dropped, 0u) << "the schedule never dropped a frame";
  EXPECT_GT(retransmits, 0u) << "chaos never exercised the retransmit path";
}

// Tier 2: units whose primary tag namespace is blackholed are retried on
// fresh epoch tags at depth 1, and the results stay bit-exact (ring retries
// rerun from the unit's staging, sparse retries from a fresh work copy of
// the untouched tensors; a failed hierarchical attempt 0 leaves the tensors
// untouched too, so its ring retry stages from them). The contrast leg
// shows the coverage is tier 2's alone: without unit retry the same
// schedule aborts.
TEST(ChaosSoakTest, EngineRetriesUnitsOnFreshEpochs) {
  const int world = 2;
  const int iters = 6;
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 4096;
  config.pipeline_depth = 4;
  CommConfig topk_config = config;
  topk_config.codec = compress::CodecSpec{compress::CodecKind::kTopK, 0.25f};

  bool failed = false;
  const auto clean = RunEngine(world, config, FailureConfig{}, iters, &failed);
  ASSERT_FALSE(failed);
  const auto clean_topk =
      RunEngine(world, topk_config, FailureConfig{}, iters, &failed);
  ASSERT_FALSE(failed);

  // Fault the *primary* unit namespace only; epoch-1 retry tags
  // (collective::kUnitRetryTagBase) are clean. A blackhole fails every
  // first attempt before it writes anything, on the ring and on the top-k
  // record ring alike; a 5% drop window fails some first attempts partway,
  // after the ring has already written part of the gradient tensors — the
  // retry must rerun from the unit's staging, not from the half-written
  // tensors.
  FailureConfig failure;
  const struct {
    double drop_prob;
    bool topk;
  } legs[] = {{1.0, false}, {1.0, true}, {0.05, false}};
  for (const auto& leg : legs) {
    const double drop_prob = leg.drop_prob;
    SCOPED_TRACE("primary-namespace drop_prob " + std::to_string(drop_prob) +
                 (leg.topk ? ", top-k" : ""));
    FaultSpec spec;
    spec.seed = 62;
    TagFaults window;
    window.tag_lo = collective::kUnitTagBase;
    window.tag_hi = collective::kUnitRetryTagBase - 1;
    window.faults.drop_prob = drop_prob;
    spec.per_tag.push_back(window);

    failure.faults = spec;
    failure.collective_timeout_ms = 200;
    failure.degrade_before_abort = true;
    std::uint64_t unit_retries = 0;
    const auto result =
        RunEngine(world, leg.topk ? topk_config : config, failure, iters,
                  &failed, [&](ThreadedAiaccEngine& engine) {
                    unit_retries = engine.metrics()
                                       .GetCounter("engine.unit_retries")
                                       .Value();
                  });
    EXPECT_FALSE(failed) << "engine aborted instead of retrying units";
    EXPECT_EQ(result, leg.topk ? clean_topk : clean)
        << "unit retries changed the numerics";
    EXPECT_GT(unit_retries, 0u) << "no unit retries recorded";
  }

  // World 4, hierarchical: the blackhole fails every hierarchical attempt
  // 0, which touched only its work copy, and each retry runs on the ring.
  // RunEngine's dyadic inputs make the ring and hierarchical averages exact
  // in any order, so the retried run must match the clean one bit for bit.
  failure.faults->per_tag[0].faults.drop_prob = 1.0;
  {
    SCOPED_TRACE("world 4, hierarchical, primary-namespace blackhole");
    CommConfig hier_config = config;
    hier_config.algorithm = collective::Algorithm::kHierarchical;
    const auto clean_hier =
        RunEngine(4, hier_config, FailureConfig{}, iters, &failed);
    ASSERT_FALSE(failed);
    std::uint64_t unit_retries = 0;
    const auto result =
        RunEngine(4, hier_config, failure, iters, &failed,
                  [&](ThreadedAiaccEngine& engine) {
                    unit_retries = engine.metrics()
                                       .GetCounter("engine.unit_retries")
                                       .Value();
                  });
    EXPECT_FALSE(failed) << "engine aborted instead of retrying units";
    EXPECT_EQ(result, clean_hier) << "unit retries changed the numerics";
    EXPECT_GT(unit_retries, 0u) << "no unit retries recorded";
  }

  // Contrast: the blackhole without unit retry aborts (tier 3).
  failure.degrade_before_abort = false;
  RunEngine(world, config, failure, iters, &failed);
  EXPECT_TRUE(failed) << "expected the engine to abort without unit retry";
}

}  // namespace
}  // namespace aiacc
