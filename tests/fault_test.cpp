// Fault-injection and failure-recovery tests.
//
// Layer by layer: the seeded FaultyTransport decorator (deterministic
// schedules, lossless perturbations and drops under a reliable layer that
// never resends, crashes, stragglers), heartbeat failure detection in
// ThreadedAiaccEngine, and finally the chaos matrix —
// a grid of seeded fault schedules driven through end-to-end MLP training
// with checkpoint/restore recovery, asserting exact-or-non-OK semantics and
// bounded wall-clock (the test binary's ctest TIMEOUT is the bound).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "collective/tags.h"
#include "core/threaded_engine.h"
#include "dnn/mlp.h"
#include "telemetry/metrics.h"
#include "trainer/recovery.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"

namespace aiacc::transport {
namespace {

// ------------------------------------------------ FaultyTransport unit ---

TEST(FaultyTransportTest, NoFaultsIsTransparent) {
  InProcTransport inner(2);
  FaultyTransport tr(inner, FaultSpec{});
  tr.Send(0, 1, 5, {1.0f, 2.0f});
  auto p = tr.Recv(1, 0, 5);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, (Payload{1.0f, 2.0f}));
  const FaultStats s = tr.stats();
  EXPECT_EQ(s.dropped + s.duplicated + s.reordered + s.delayed + s.blackholed,
            0u);
}

TEST(FaultyTransportTest, SameSeedSameSchedule) {
  FaultSpec spec;
  spec.seed = 99;
  spec.all_links.drop_prob = 0.2;
  spec.all_links.dup_prob = 0.2;
  spec.all_links.reorder_prob = 0.2;
  auto run = [&] {
    InProcTransport inner(2);
    FaultyTransport tr(inner, spec);
    for (int i = 0; i < 300; ++i) {
      tr.Send(0, 1, 0, {static_cast<float>(i)});
    }
    return tr.stats();
  };
  const FaultStats a = run();
  const FaultStats b = run();
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_GT(a.dropped, 0u);
  EXPECT_GT(a.duplicated, 0u);
  EXPECT_GT(a.reordered, 0u);
}

TEST(FaultyTransportTest, RepeatsDoNotMoveFirstCopyDecisions) {
  // A retransmitting sender puts repeats of earlier payloads between first
  // copies. Each first copy's fate must not depend on how many repeats went
  // out before it: decisions key on what a message carries, not on the
  // channel's send count.
  FaultSpec spec;
  spec.seed = 5;
  spec.all_links.drop_prob = 0.3;
  spec.all_links.dup_prob = 0.3;
  constexpr int kPayloads = 200;
  // Per first copy, how many copies reached the receiver: 0 dropped, 1
  // delivered, 2 duplicated.
  const auto fates = [&](bool with_repeats) {
    InProcTransport inner(2);
    FaultyTransport tr(inner, spec);
    std::vector<int> copies;
    for (int i = 0; i < kPayloads; ++i) {
      tr.Send(0, 1, 0, {static_cast<float>(i)});
      copies.push_back(0);
      while (tr.TryRecv(1, 0, 0)) ++copies.back();
      if (with_repeats && i % 3 == 0) {
        tr.Send(0, 1, 0, {static_cast<float>(i / 2)});
        while (tr.TryRecv(1, 0, 0)) {
        }
      }
    }
    return copies;
  };
  const std::vector<int> plain = fates(false);
  EXPECT_EQ(plain, fates(true));
  EXPECT_GT(std::count(plain.begin(), plain.end(), 0), 0);
  EXPECT_GT(std::count(plain.begin(), plain.end(), 2), 0);
}

TEST(FaultyTransportTest, LosslessFaultsDeliverExactStreamWithoutResend) {
  // Duplication + reordering + delay but no drops, under a reliable layer
  // that never resends (the engine's tier-1-off stack): it must still
  // yield the exact sent stream, because dedup and resequencing alone
  // repair these faults and a held reorder victim is always released. The
  // sender sends pairs and waits for both: a reorder inside a pair swaps
  // it on the wire, and a held second message has no next send to release
  // it, so the receive must.
  FaultSpec spec;
  spec.seed = 7;
  spec.all_links.dup_prob = 0.3;
  spec.all_links.reorder_prob = 0.3;
  spec.all_links.delay_prob = 0.2;
  spec.all_links.max_delay_ms = 1.0;
  InProcTransport inner(2);
  FaultyTransport faulty(inner, spec);
  ReliableTransport tr(faulty, WithoutResend({}));
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; i += 2) {
    tr.Send(0, 1, 3, {static_cast<float>(i)});
    tr.Send(0, 1, 3, {static_cast<float>(i + 1)});
    for (int j = i; j < i + 2; ++j) {
      auto p = tr.RecvFor(1, 0, 3, std::chrono::milliseconds(5000));
      ASSERT_TRUE(p.ok()) << "message " << j << ": " << p.status().message();
      ASSERT_EQ((*p)[0], static_cast<float>(j)) << "stream corrupted at " << j;
    }
  }
  const FaultStats s = faulty.stats();
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.reordered, 0u);
  EXPECT_GT(s.delayed, 0u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(tr.stats().retransmits, 0u);
}

TEST(FaultyTransportTest, DropWithoutResendTimesOutTheReceiver) {
  FaultSpec spec;
  spec.seed = 3;
  spec.all_links.drop_prob = 1.0;
  InProcTransport inner(2);
  FaultyTransport faulty(inner, spec);
  ReliableTransport tr(faulty, WithoutResend({}));
  tr.Send(0, 1, 0, {1.0f});
  auto p = tr.RecvFor(1, 0, 0, std::chrono::milliseconds(30));
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(faulty.stats().dropped, 1u);
  EXPECT_EQ(tr.stats().retransmits, 0u);
}

TEST(FaultyTransportTest, CrashBlackholesBothDirections) {
  InProcTransport inner(3);
  FaultyTransport tr(inner, FaultSpec{});
  tr.CrashRank(1);
  EXPECT_TRUE(tr.IsCrashed(1));
  EXPECT_FALSE(tr.IsCrashed(0));
  tr.Send(0, 1, 0, {1.0f});  // into the crashed rank
  tr.Send(1, 0, 0, {2.0f});  // out of the crashed rank
  tr.Send(0, 2, 0, {3.0f});  // healthy pair still works
  EXPECT_FALSE(tr.TryRecv(1, 0, 0).has_value());
  EXPECT_FALSE(tr.TryRecv(0, 1, 0).has_value());
  auto p = tr.Recv(2, 0, 0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)[0], 3.0f);
  EXPECT_EQ(tr.stats().blackholed, 2u);
}

TEST(FaultyTransportTest, ScheduledCrashFiresAfterSendBudget) {
  FaultSpec spec;
  spec.crash_rank = 0;
  spec.crash_after_sends = 3;
  InProcTransport inner(2);
  FaultyTransport tr(inner, spec);
  for (int i = 0; i < 6; ++i) {
    tr.Send(0, 1, 0, {static_cast<float>(i)});
  }
  EXPECT_TRUE(tr.IsCrashed(0));
  int delivered = 0;
  while (tr.TryRecv(1, 0, 0).has_value()) ++delivered;
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(tr.stats().blackholed, 3u);
}

TEST(FaultyTransportTest, StragglerSlowsItsSends) {
  FaultSpec spec;
  spec.straggler_rank = 0;
  spec.straggler_delay_ms = 30.0;
  InProcTransport inner(2);
  FaultyTransport tr(inner, spec);
  const auto t0 = std::chrono::steady_clock::now();
  tr.Send(0, 1, 0, {1.0f});
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
  EXPECT_GE(tr.stats().delayed, 1u);
  // The other direction is unaffected.
  const auto t1 = std::chrono::steady_clock::now();
  tr.Send(1, 0, 0, {2.0f});
  EXPECT_LT(std::chrono::steady_clock::now() - t1,
            std::chrono::milliseconds(20));
}

}  // namespace
}  // namespace aiacc::transport

namespace aiacc::core {
namespace {

// ------------------------------------------- engine failure detection ----

TEST(FailureDetectionTest, HeartbeatDetectsCrashedRank) {
  const int world = 3;
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 256;
  FailureConfig failure;
  failure.detect_failures = true;
  failure.heartbeat_interval_ms = 2.0;
  failure.heartbeat_timeout_ms = 600.0;
  failure.faults = transport::FaultSpec{};  // injector on, no faults yet
  ThreadedAiaccEngine engine(world, config, failure);

  std::vector<std::thread> threads;
  std::vector<Status> last(world, Status::Ok());
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      std::vector<float> grad(64, static_cast<float>(r));
      ASSERT_TRUE(worker.Register("g", grad).ok());
      worker.Finalize();
      for (int iter = 0; iter < 1'000'000; ++iter) {
        worker.PushAll();
        const Status st = worker.WaitIteration();
        if (!st.ok()) {
          last[static_cast<std::size_t>(r)] = st;
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.fault_injector()->CrashRank(1);
  for (auto& t : threads) t.join();

  EXPECT_TRUE(engine.aborted());
  EXPECT_FALSE(engine.health().ok());
  for (int r = 0; r < world; ++r) {
    EXPECT_FALSE(last[static_cast<std::size_t>(r)].ok())
        << "rank " << r << " never saw the failure";
  }
  EXPECT_EQ(engine.SuspectedRanks(), (std::vector<int>{1}));
  engine.Shutdown();
}

TEST(FailureDetectionTest, CollectiveDeadlineAbortsWithoutHeartbeats) {
  // Heartbeats off; the per-message collective deadline alone must turn a
  // blackholed peer into an abort instead of a hang.
  const int world = 2;
  CommConfig config;
  config.num_streams = 1;
  config.granularity_bytes = 1 << 20;
  FailureConfig failure;
  failure.collective_timeout_ms = 100;
  transport::FaultSpec faults;
  faults.crash_rank = 1;
  faults.crash_after_sends = 0;  // dead on arrival
  failure.faults = faults;
  ThreadedAiaccEngine engine(world, config, failure);

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
  EXPECT_TRUE(engine.aborted());
  for (int r = 0; r < world; ++r) {
    EXPECT_FALSE(last[static_cast<std::size_t>(r)].ok());
  }
  engine.Shutdown();
}

TEST(FailureDetectionTest, DroppedHeartbeatsAreGapsNotSilence) {
  // Heartbeats run on the wire beneath the reliable layer, so a lost beat
  // is a gap and the next beat refreshes the peer. Through a reliable
  // layer that never resends (tier 1 off), the first lost beat would stall
  // the in-order beat stream into a false suspicion. The run spans several
  // heartbeat timeouts, so such a stall would abort it.
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable_transport on" : "reliable_transport off");
    const int world = 3;
    const int iters = 30;
    CommConfig config;
    config.num_streams = 2;
    config.granularity_bytes = 128;
    FailureConfig failure;
    failure.detect_failures = true;
    failure.heartbeat_interval_ms = 2.0;
    failure.heartbeat_timeout_ms = 250.0;
    failure.reliable_transport = reliable;
    transport::FaultSpec faults;
    faults.seed = 71;
    transport::TagFaults beats;
    beats.tag_lo = collective::kHeartbeatTag;
    beats.tag_hi = collective::kHeartbeatTag;
    beats.faults.drop_prob = 0.3;
    faults.per_tag.push_back(beats);
    failure.faults = faults;
    ThreadedAiaccEngine engine(world, config, failure);

    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        auto& worker = engine.worker(r);
        std::vector<float> grad(64);
        ASSERT_TRUE(worker.Register("g", grad).ok());
        worker.Finalize();
        for (int iter = 0; iter < iters; ++iter) {
          std::fill(grad.begin(), grad.end(), static_cast<float>(r));
          worker.PushAll();
          ASSERT_TRUE(worker.WaitIteration().ok()) << "iteration " << iter;
          EXPECT_FLOAT_EQ(grad[0], 1.0f);  // kAvg over ranks 0, 1, 2
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_FALSE(engine.aborted());
    EXPECT_TRUE(engine.SuspectedRanks().empty());
    EXPECT_GT(engine.fault_injector()->stats().dropped, 0u);
    engine.Shutdown();
  }
}

TEST(FailureDetectionTest, HealthyRunStaysHealthyWithDetectionOn) {
  const int world = 2;
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 128;
  FailureConfig failure;
  failure.detect_failures = true;
  failure.heartbeat_interval_ms = 2.0;
  failure.heartbeat_timeout_ms = 500.0;
  ThreadedAiaccEngine engine(world, config, failure);

  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      std::vector<float> grad(64, static_cast<float>(r + 1));
      ASSERT_TRUE(worker.Register("g", grad).ok());
      worker.Finalize();
      for (int iter = 0; iter < 20; ++iter) {
        std::fill(grad.begin(), grad.end(), static_cast<float>(r + 1));
        worker.PushAll();
        ASSERT_TRUE(worker.WaitIteration().ok());
        // kAvg over ranks 1 and 2.
        EXPECT_FLOAT_EQ(grad[0], 1.5f);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(engine.aborted());
  EXPECT_TRUE(engine.health().ok());
  engine.Shutdown();
}

}  // namespace
}  // namespace aiacc::core

namespace aiacc::trainer {
namespace {

// ------------------------------------------------------- chaos matrix ----

RecoverySpec BaseSpec() {
  RecoverySpec spec;
  spec.layer_sizes = {6, 12, 2};
  spec.model_seed = 42;
  spec.num_samples = 24;  // divisible by 4 and by 3 (post-crash world)
  spec.data_seed = 7;
  spec.world_size = 4;
  spec.total_iterations = 30;
  spec.learning_rate = 0.1f;
  spec.comm.num_streams = 2;
  spec.comm.granularity_bytes = 128;
  spec.checkpoint_interval = 2;
  return spec;
}

void ExpectParamsNear(const std::vector<std::vector<float>>& got,
                      const std::vector<std::vector<float>>& want,
                      float tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), want[t].size());
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      ASSERT_NEAR(got[t][i], want[t][i], tol)
          << "tensor " << t << " element " << i;
    }
  }
}

std::vector<std::vector<float>> FaultFreeBaseline() {
  const RecoveryReport clean = TrainWithRecovery(BaseSpec());
  EXPECT_TRUE(clean.final_status.ok()) << clean.final_status.message();
  EXPECT_EQ(clean.recoveries, 0);
  return clean.final_parameters;
}

TEST(ChaosMatrixTest, LosslessSchedulesMatchFaultFreeExactly) {
  const auto baseline = FaultFreeBaseline();
  // Delay-only and dup+reorder schedules across several seeds: training
  // must complete bit-identically to the fault-free run. Tier 1 is off, so
  // the reliable layer hides every perturbation by dedup and resequencing
  // alone, with no retransmit.
  const telemetry::Counter& retransmits =
      telemetry::MetricsRegistry::Global().GetCounter("reliable.retransmits");
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    for (const bool with_reorder : {false, true}) {
      RecoverySpec spec = BaseSpec();
      transport::FaultSpec faults;
      faults.seed = seed;
      faults.all_links.delay_prob = 0.05;
      faults.all_links.max_delay_ms = 2.0;
      if (with_reorder) {
        faults.all_links.dup_prob = 0.05;
        faults.all_links.reorder_prob = 0.05;
      }
      spec.failure.faults = faults;
      const std::uint64_t retransmits_before = retransmits.Value();
      const RecoveryReport report = TrainWithRecovery(spec);
      ASSERT_TRUE(report.final_status.ok())
          << "seed " << seed << ": " << report.final_status.message();
      EXPECT_EQ(report.recoveries, 0);
      ExpectParamsNear(report.final_parameters, baseline, 0.0f);
      EXPECT_EQ(retransmits.Value(), retransmits_before);
    }
  }
}

TEST(ChaosMatrixTest, DropSchedulesFailCleanlyOrMatchExactly) {
  const auto baseline = FaultFreeBaseline();
  // Message loss with a collective deadline: tier 1 is off, so a dropped
  // message makes the receiver miss its deadline — the run must either complete
  // exactly (nothing essential was dropped) or return non-OK in bounded
  // time. No hangs, no silent corruption.
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    RecoverySpec spec = BaseSpec();
    transport::FaultSpec faults;
    faults.seed = seed;
    faults.all_links.drop_prob = 0.01;
    spec.failure.faults = faults;
    spec.failure.collective_timeout_ms = 200;
    spec.max_recoveries = 0;  // no rank died, nothing to evict
    const RecoveryReport report = TrainWithRecovery(spec);
    if (report.final_status.ok()) {
      ExpectParamsNear(report.final_parameters, baseline, 0.0f);
    } else {
      EXPECT_TRUE(report.final_status.code() ==
                      StatusCode::kDeadlineExceeded ||
                  report.final_status.code() == StatusCode::kUnavailable)
          << report.final_status.message();
    }
  }
}

TEST(ChaosMatrixTest, MidTrainingCrashRecoversViaCheckpoint) {
  const auto baseline = FaultFreeBaseline();
  // A rank dies mid-training (blackholed after a send budget): heartbeats
  // detect it, the engine aborts, the trainer rebuilds over the 3
  // survivors, restores the last checkpoint and replays. Equal shards keep
  // the run on the full-batch trajectory, so the recovered parameters must
  // match fault-free training to float tolerance.
  for (const std::uint64_t send_budget : {150u, 400u}) {
    RecoverySpec spec = BaseSpec();
    transport::FaultSpec faults;
    faults.seed = 31;
    faults.crash_rank = 2;
    faults.crash_after_sends = send_budget;
    spec.failure.faults = faults;
    spec.failure.detect_failures = true;
    spec.failure.heartbeat_interval_ms = 2.0;
    spec.failure.heartbeat_timeout_ms = 600.0;
    const RecoveryReport report = TrainWithRecovery(spec);
    ASSERT_TRUE(report.final_status.ok())
        << "budget " << send_budget << ": " << report.final_status.message();
    EXPECT_EQ(report.recoveries, 1);
    EXPECT_EQ(report.attempts, 2);
    EXPECT_EQ(report.failed_ranks, (std::vector<int>{2}));
    EXPECT_EQ(report.final_world_size, 3);
    ExpectParamsNear(report.final_parameters, baseline, 5e-3f);
    // The timeline tells the whole recovery story.
    ASSERT_GE(report.timeline.size(), 4u);
    EXPECT_NE(report.timeline[1].find("ABORTED"), std::string::npos);
  }
}

TEST(ChaosMatrixTest, CrashBeyondRecoveryBudgetGivesUpCleanly) {
  RecoverySpec spec = BaseSpec();
  transport::FaultSpec faults;
  faults.seed = 41;
  faults.crash_rank = 1;
  faults.crash_after_sends = 300;
  spec.failure.faults = faults;
  spec.failure.detect_failures = true;
  spec.failure.heartbeat_interval_ms = 2.0;
  spec.failure.heartbeat_timeout_ms = 600.0;
  spec.max_recoveries = 0;
  const RecoveryReport report = TrainWithRecovery(spec);
  EXPECT_FALSE(report.final_status.ok());
  EXPECT_EQ(report.recoveries, 1);  // attempted, then over budget
  EXPECT_TRUE(report.final_parameters.empty());
}

}  // namespace
}  // namespace aiacc::trainer
