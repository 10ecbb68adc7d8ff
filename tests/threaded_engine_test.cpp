// Tests of the real-concurrency AIACC runtime (Fig. 4-6 with actual
// threads): numeric correctness against sequential training, multi-stream
// configurations, split/merged units on odd tensor sizes, multi-iteration
// stability, and protocol statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "compress/codec.h"
#include "core/sync_bits.h"
#include "core/threaded_engine.h"
#include "dnn/mlp.h"

namespace aiacc::core {
namespace {

constexpr int kIn = 6;
constexpr int kOut = 2;

dnn::Mlp TrainSequential(const dnn::SyntheticDataset& ds, int steps,
                         float lr) {
  dnn::Mlp model({kIn, 12, kOut}, 42);
  for (int s = 0; s < steps; ++s) {
    model.Forward(ds.inputs, ds.num_samples);
    model.Backward(ds.inputs, ds.targets, ds.num_samples);
    model.SgdStep(lr);
  }
  return model;
}

/// Train `world` data-parallel replicas through the threaded engine and
/// return the per-rank models.
std::vector<std::unique_ptr<dnn::Mlp>> TrainDistributed(
    const dnn::SyntheticDataset& ds, int world, int steps, float lr,
    CommConfig config) {
  ThreadedAiaccEngine engine(world, config);
  const int shard = ds.num_samples / world;
  std::vector<std::unique_ptr<dnn::Mlp>> replicas(
      static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      auto model =
          std::make_unique<dnn::Mlp>(std::vector<int>{kIn, 12, kOut}, 42);
      // Register every gradient tensor (names sort identically everywhere).
      auto grads = model->GradientTensors();
      for (std::size_t t = 0; t < grads.size(); ++t) {
        char name[32];
        std::snprintf(name, sizeof(name), "grad%03zu", t);
        ASSERT_TRUE(worker.Register(name, grads[t]).ok());
      }
      worker.Finalize();

      std::vector<float> x(ds.inputs.begin() + r * shard * kIn,
                           ds.inputs.begin() + (r + 1) * shard * kIn);
      std::vector<float> y(ds.targets.begin() + r * shard * kOut,
                           ds.targets.begin() + (r + 1) * shard * kOut);
      for (int s = 0; s < steps; ++s) {
        model->Forward(x, shard);
        model->Backward(x, y, shard);
        worker.PushAll();  // gradients enter the engine
        // Averaged in place across ranks.
        ASSERT_TRUE(worker.WaitIteration().ok());
        model->SgdStep(lr);
      }
      replicas[static_cast<std::size_t>(r)] = std::move(model);
    });
  }
  for (auto& t : threads) t.join();
  return replicas;
}

TEST(ThreadedEngineTest, MatchesSequentialTraining) {
  const auto ds = dnn::MakeSyntheticDataset(32, kIn, kOut, 7);
  const dnn::Mlp reference = TrainSequential(ds, 8, 0.2f);
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 256;  // forces several units per iteration
  const auto replicas = TrainDistributed(ds, 4, 8, 0.2f, config);
  for (const auto& replica : replicas) {
    EXPECT_TRUE(replica->ParametersEqual(reference, 2e-4f));
  }
}

class ThreadedEngineConfigP
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(ThreadedEngineConfigP, ReplicasStayIdenticalAcrossConfigs) {
  const auto [world, streams, granularity] = GetParam();
  const auto ds = dnn::MakeSyntheticDataset(24, kIn, kOut, 11);
  CommConfig config;
  config.num_streams = streams;
  config.granularity_bytes = granularity;
  const auto replicas = TrainDistributed(ds, world, 4, 0.1f, config);
  for (std::size_t r = 1; r < replicas.size(); ++r) {
    EXPECT_TRUE(replicas[r]->ParametersEqual(*replicas[0], 0.0f))
        << "rank " << r << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreadedEngineConfigP,
    ::testing::Values(std::tuple{1, 1, std::size_t{1} << 20},
                      std::tuple{2, 1, std::size_t{64}},
                      std::tuple{3, 2, std::size_t{128}},
                      std::tuple{4, 4, std::size_t{64}},
                      std::tuple{4, 2, std::size_t{1} << 20},
                      std::tuple{6, 3, std::size_t{256}}));

TEST(ThreadedEngineTest, ManyIterationsRemainStable) {
  const auto ds = dnn::MakeSyntheticDataset(16, kIn, kOut, 3);
  CommConfig config;
  config.num_streams = 3;
  config.granularity_bytes = 96;
  const auto replicas = TrainDistributed(ds, 4, 30, 0.05f, config);
  for (std::size_t r = 1; r < replicas.size(); ++r) {
    EXPECT_TRUE(replicas[r]->ParametersEqual(*replicas[0], 0.0f));
  }
}

TEST(ThreadedEngineTest, StatsReflectProtocolActivity) {
  const auto ds = dnn::MakeSyntheticDataset(16, kIn, kOut, 5);
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 128;
  const int steps = 5;
  // The MLP's 4 gradients, and 2000 two-float tensors: PushAll hands over
  // every gradient's bit and the flush under one lock hold, so the MPI
  // process agrees on all of them in one sync round however many there
  // are. The MLP runs once more over a top-k codec, and once on 4 ranks
  // with the hierarchical all-reduce; both reduce on a work copy.
  struct Case {
    std::size_t many;
    bool sparse;
    bool hierarchical;
  };
  for (const Case c : {Case{0, false, false}, Case{2000, false, false},
                       Case{0, true, false}, Case{0, false, true}}) {
    const std::size_t many = c.many;
    const int world = c.hierarchical ? 4 : 2;
    config.codec = c.sparse ? compress::CodecSpec{compress::CodecKind::kTopK,
                                                  0.25f}
                            : compress::CodecSpec{};
    config.algorithm = c.hierarchical ? collective::Algorithm::kHierarchical
                                      : collective::Algorithm::kRing;
    const std::size_t n_grads =
        many > 0 ? many
                 : dnn::Mlp({kIn, 12, kOut}, 42).GradientTensors().size();
    const std::string label = std::to_string(n_grads) + " tensors" +
                              (c.sparse ? ", top-k" : "") +
                              (c.hierarchical ? ", hierarchical" : "");
    // Pool buffers acquired over the whole run, and units reduced on all
    // ranks, indexed by retry_units.
    std::uint64_t acquired[2] = {0, 0};
    std::uint64_t units[2] = {0, 0};
    // Unit retry (tier 2) must not change the sync-round wire format.
    for (const bool retry_units : {false, true}) {
      SCOPED_TRACE(label + ", " +
                   (retry_units ? "degrade_before_abort" : "default"));
      const auto pool_acquires = [] {
        const auto st = common::BufferPool::Global().stats();
        return st.hits + st.misses;
      };
      const std::uint64_t acquires_before = pool_acquires();
      ThreadedAiaccEngine engine(world, config, [&] {
        FailureConfig failure;
        failure.degrade_before_abort = retry_units;
        return failure;
      }());
      std::vector<std::thread> threads;
      const int shard = ds.num_samples / world;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          auto& worker = engine.worker(r);
          dnn::Mlp model({kIn, 12, kOut}, 42);
          std::vector<std::vector<float>> small(many, std::vector<float>(2));
          std::vector<std::span<float>> grads;
          if (many > 0) {
            grads.assign(small.begin(), small.end());
          } else {
            grads = model.GradientTensors();
          }
          for (std::size_t t = 0; t < grads.size(); ++t) {
            ASSERT_TRUE(
                worker.Register("g" + std::to_string(t), grads[t]).ok());
          }
          worker.Finalize();
          std::vector<float> x(ds.inputs.begin() + r * shard * kIn,
                               ds.inputs.begin() + (r + 1) * shard * kIn);
          std::vector<float> y(ds.targets.begin() + r * shard * kOut,
                               ds.targets.begin() + (r + 1) * shard * kOut);
          for (int s = 0; s < steps; ++s) {
            if (many > 0) {
              for (auto& g : small) std::fill(g.begin(), g.end(), r + s);
            } else {
              model.Forward(x, shard);
              model.Backward(x, y, shard);
            }
            worker.PushAll();
            ASSERT_TRUE(worker.WaitIteration().ok());
            if (many > 0) {
              for (const auto& g : small) ASSERT_EQ(g[0], s + 0.5f);
            } else {
              model.SgdStep(0.1f);
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      acquired[retry_units] = pool_acquires() - acquires_before;
      for (int r = 0; r < world; ++r) {
        const auto& stats = engine.worker(r).stats();
        units[retry_units] += stats.units_reduced;
        EXPECT_EQ(stats.iterations, static_cast<std::uint64_t>(steps));
        EXPECT_EQ(stats.sync_rounds, static_cast<std::uint64_t>(steps));
        // 128-byte units: multiple units per iteration.
        EXPECT_GE(stats.units_reduced, static_cast<std::uint64_t>(steps) * 2);
        EXPECT_GT(stats.bytes_reduced, 0u);
        // Bit-packed sync rounds: every round ships exactly
        // SyncWordCount(n) floats (32 readiness bits per float), not one
        // float per gradient.
        EXPECT_EQ(engine.metrics()
                      .GetCounter(telemetry::RankScoped(
                          "engine.sync_payload_floats", r))
                      .Value(),
                  stats.sync_rounds * SyncWordCount(n_grads));
      }
    }
    // Staging exists only for ring retries: without tier 2 the ring reads
    // the tensors directly, one pooled buffer fewer per unit and rank, and
    // nothing else the engine acquires changes. A sparse unit reduces on a
    // work copy on every attempt, and a hierarchical attempt 0 does too, so
    // on a fault-free run tier 2 stages nothing for either.
    SCOPED_TRACE(label);
    EXPECT_EQ(units[false], units[true]);
    EXPECT_EQ(acquired[true] - acquired[false],
              c.sparse || c.hierarchical ? std::uint64_t{0} : units[true]);
  }
}

TEST(ThreadedEngineTest, RegistrationValidation) {
  ThreadedAiaccEngine engine(1, CommConfig{});
  auto& worker = engine.worker(0);
  std::vector<float> tensor(8);
  EXPECT_TRUE(worker.Register("a", tensor).ok());
  EXPECT_EQ(worker.Register("a", tensor).code(),
            StatusCode::kAlreadyExists);
}

TEST(ThreadedEngineTest, HierarchicalAlgorithmAlsoCorrect) {
  const auto ds = dnn::MakeSyntheticDataset(32, kIn, kOut, 9);
  const dnn::Mlp reference = TrainSequential(ds, 5, 0.1f);
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 200;
  config.algorithm = collective::Algorithm::kHierarchical;
  const auto replicas = TrainDistributed(ds, 4, 5, 0.1f, config);
  for (const auto& replica : replicas) {
    EXPECT_TRUE(replica->ParametersEqual(reference, 2e-4f));
  }
}

TEST(ThreadedEngineTest, ShutdownWakesMpiProcessesBeforeAnyPush) {
  // Every rank finalizes and pushes nothing, so each MPI process waits for
  // its worker's first push; Shutdown must wake and join them all.
  constexpr int kWorld = 2;
  ThreadedAiaccEngine engine(kWorld, CommConfig{});
  std::vector<std::vector<float>> grads(kWorld, std::vector<float>(8, 1.0f));
  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      auto& grad = grads[static_cast<std::size_t>(r)];
      ASSERT_TRUE(worker.Register("g", grad).ok());
      worker.Finalize();
    });
  }
  for (auto& t : threads) t.join();
  engine.Shutdown();
  EXPECT_FALSE(engine.aborted());
}

TEST(ThreadedEngineTest, AbortWakesMpiProcessesWaitingForMorePushes) {
  // Every rank pushes "a" but neither "b" nor the flush, and waits until
  // "a" is reduced; each MPI process then waits for more pushes. A crash
  // aborts the engine from the heartbeat thread: WaitIteration returns the
  // abort status, and the parked MPI processes wake and return.
  constexpr int kWorld = 3;
  constexpr std::size_t kLen = 64;
  CommConfig config;
  config.num_streams = 1;
  config.granularity_bytes = kLen * sizeof(float);  // "a" is a unit alone
  FailureConfig failure;
  failure.detect_failures = true;
  failure.heartbeat_interval_ms = 2.0;
  failure.heartbeat_timeout_ms = 200.0;
  failure.faults = transport::FaultSpec{};  // injector on, no faults
  ThreadedAiaccEngine engine(kWorld, config, failure);

  std::atomic<int> a_reduced{0};
  std::vector<Status> results(kWorld, Status::Ok());
  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      std::vector<float> a(kLen, static_cast<float>(r));
      std::vector<float> b(kLen, 1.0f);
      ASSERT_TRUE(worker.Register("a", a).ok());
      ASSERT_TRUE(worker.Register("b", b).ok());
      worker.Finalize();
      worker.Push("a");
      ASSERT_TRUE(worker.WaitGradient("a").ok());
      EXPECT_EQ(a[0], 1.0f);  // mean of ranks 0, 1, 2
      a_reduced.fetch_add(1);
      results[static_cast<std::size_t>(r)] = worker.WaitIteration();
    });
  }
  while (a_reduced.load() < kWorld) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.fault_injector()->CrashRank(1);
  for (auto& t : threads) t.join();

  EXPECT_TRUE(engine.aborted());
  for (int r = 0; r < kWorld; ++r) {
    const Status& st = results[static_cast<std::size_t>(r)];
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << "rank " << r;
    EXPECT_EQ(st.ToString(), engine.health().ToString()) << "rank " << r;
  }
  const auto start = std::chrono::steady_clock::now();
  engine.Shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

}  // namespace
}  // namespace aiacc::core
