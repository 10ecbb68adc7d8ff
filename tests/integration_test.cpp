// End-to-end integration tests exercising the *numeric* training path:
//
//  1. Perseus threaded backend: data-parallel MLP training (real threads,
//     real multi-channel ring all-reduce) must match sequential full-batch
//     training to float tolerance.
//  2. The packing pipeline on real bytes: gradients -> units -> simulated
//     all-reduce with real payloads -> scatter back.
//  3. Fault tolerance: checkpoint/restore resumes training identically;
//     elastic deployment seeds a new worker via parameter broadcast.
//  4. NaN debugging path.
#include <gtest/gtest.h>

#include <cstdio>

#include "collective/simulated.h"
#include "collective/threaded.h"
#include "common/sync.h"
#include "core/checkpoint.h"
#include "core/packing.h"
#include "core/perseus.h"
#include "core/registry.h"
#include "dnn/mlp.h"

namespace aiacc {
namespace {

constexpr int kIn = 6;
constexpr int kOut = 2;

/// Sequential reference: full-batch SGD on the whole dataset.
dnn::Mlp TrainSequential(const dnn::SyntheticDataset& ds, int steps,
                         float lr) {
  dnn::Mlp model({kIn, 12, kOut}, /*seed=*/42);
  for (int s = 0; s < steps; ++s) {
    model.Forward(ds.inputs, ds.num_samples);
    model.Backward(ds.inputs, ds.targets, ds.num_samples);
    model.SgdStep(lr);
  }
  return model;
}

TEST(PerseusIntegrationTest, DataParallelMatchesSequential) {
  const int world = 4;
  const int steps = 10;
  const float lr = 0.2f;
  const auto ds = dnn::MakeSyntheticDataset(32, kIn, kOut, 7);
  const int shard = ds.num_samples / world;

  const dnn::Mlp reference = TrainSequential(ds, steps, lr);

  std::vector<std::unique_ptr<dnn::Mlp>> replicas(world);
  perseus::RunRanks(world, [&](perseus::Session& session) {
    // Every worker starts from the same seed (Horovod: broadcast initial
    // parameters; identical seeding is equivalent here).
    auto model = std::make_unique<dnn::Mlp>(
        std::vector<int>{kIn, 12, kOut}, 42);
    const int rank = session.rank();
    std::vector<float> x(
        ds.inputs.begin() + rank * shard * kIn,
        ds.inputs.begin() + (rank + 1) * shard * kIn);
    std::vector<float> y(
        ds.targets.begin() + rank * shard * kOut,
        ds.targets.begin() + (rank + 1) * shard * kOut);
    for (int s = 0; s < steps; ++s) {
      model->Forward(x, shard);
      model->Backward(x, y, shard);
      // Multi-streamed gradient aggregation (averaged): per-worker
      // per-shard gradients average to the full-batch gradient.
      auto report = session.AllReduceGradients(model->GradientTensors(),
                                               /*num_channels=*/3);
      ASSERT_TRUE(report.Clean());
      model->SgdStep(lr);
    }
    replicas[static_cast<std::size_t>(rank)] = std::move(model);
  });

  for (int r = 0; r < world; ++r) {
    EXPECT_TRUE(replicas[static_cast<std::size_t>(r)]->ParametersEqual(
        reference, 2e-4f))
        << "rank " << r << " diverged from sequential training";
  }
}

TEST(PerseusIntegrationTest, ReplicasStayInSync) {
  // Regardless of the reference, all replicas must hold bit-identical
  // parameters after synchronized steps.
  const int world = 3;
  const auto ds = dnn::MakeSyntheticDataset(30, kIn, kOut, 11);
  const int shard = ds.num_samples / world;
  std::vector<std::unique_ptr<dnn::Mlp>> replicas(world);
  perseus::RunRanks(world, [&](perseus::Session& session) {
    auto model =
        std::make_unique<dnn::Mlp>(std::vector<int>{kIn, 10, kOut}, 1);
    const int rank = session.rank();
    std::vector<float> x(ds.inputs.begin() + rank * shard * kIn,
                         ds.inputs.begin() + (rank + 1) * shard * kIn);
    std::vector<float> y(ds.targets.begin() + rank * shard * kOut,
                         ds.targets.begin() + (rank + 1) * shard * kOut);
    for (int s = 0; s < 5; ++s) {
      model->Forward(x, shard);
      model->Backward(x, y, shard);
      session.AllReduceGradients(model->GradientTensors(), 2);
      model->SgdStep(0.1f);
    }
    replicas[static_cast<std::size_t>(rank)] = std::move(model);
  });
  for (int r = 1; r < world; ++r) {
    EXPECT_TRUE(replicas[static_cast<std::size_t>(r)]->ParametersEqual(
        *replicas[0], 0.0f));
  }
}

TEST(PerseusIntegrationTest, ElasticWorkerJoinsViaBroadcast) {
  // Elastic deployment (§IV): a new worker receives the current parameters
  // from rank 0 before joining training.
  const int world = 4;
  std::vector<bool> matched(world, false);
  perseus::RunRanks(world, [&](perseus::Session& session) {
    // Rank 0 is the trained survivor; other ranks are "new" workers with
    // different (stale) parameters.
    dnn::Mlp model({kIn, 8, kOut},
                   session.rank() == 0 ? 42u : 1000u + session.rank());
    session.BroadcastParameters(model.ParameterTensors(), /*root=*/0);
    dnn::Mlp reference({kIn, 8, kOut}, 42);
    matched[static_cast<std::size_t>(session.rank())] =
        model.ParametersEqual(reference, 0.0f);
  });
  for (int r = 0; r < world; ++r) EXPECT_TRUE(matched[static_cast<std::size_t>(r)]);
}

TEST(PerseusIntegrationTest, NanGradientSkipsAggregation) {
  const int world = 2;
  common::Mutex mu{"test-nan-reports"};
  int nan_reports = 0;
  perseus::RunRanks(world, [&](perseus::Session& session) {
    std::vector<float> good = {1.0f, 2.0f};
    std::vector<float> bad = {std::nanf(""), 1.0f};
    std::vector<std::span<float>> grads;
    grads.emplace_back(good);
    grads.emplace_back(bad);
    auto report = session.AllReduceGradients(grads);
    if (!report.Clean()) {
      common::MutexLock lock(mu);
      ++nan_reports;
    }
  });
  EXPECT_EQ(nan_reports, world);
}

TEST(CheckpointIntegrationTest, ResumeReproducesUninterruptedRun) {
  const auto ds = dnn::MakeSyntheticDataset(16, kIn, kOut, 3);
  const float lr = 0.1f;

  // Uninterrupted: 10 steps.
  dnn::Mlp full = TrainSequential(ds, 10, lr);

  // Interrupted: 6 steps, checkpoint, restore into a fresh model, 4 more.
  dnn::Mlp first = TrainSequential(ds, 6, lr);
  core::Checkpoint ckpt;
  ckpt.iteration = 6;
  for (auto t : first.ParameterTensors()) {
    ckpt.parameters.emplace_back(t.begin(), t.end());
  }
  const std::string path = ::testing::TempDir() + "/resume_test.ckpt";
  ASSERT_TRUE(core::SaveCheckpoint(ckpt, path).ok());

  auto restored = core::LoadCheckpoint(path);
  ASSERT_TRUE(restored.ok());
  dnn::Mlp resumed({kIn, 12, kOut}, /*seed=*/999);  // wrong init, then restore
  auto tensors = resumed.ParameterTensors();
  ASSERT_EQ(tensors.size(), restored->parameters.size());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    ASSERT_EQ(tensors[i].size(), restored->parameters[i].size());
    std::copy(restored->parameters[i].begin(), restored->parameters[i].end(),
              tensors[i].begin());
  }
  for (int s = 0; s < 4; ++s) {
    resumed.Forward(ds.inputs, ds.num_samples);
    resumed.Backward(ds.inputs, ds.targets, ds.num_samples);
    resumed.SgdStep(lr);
  }
  EXPECT_TRUE(resumed.ParametersEqual(full, 0.0f));
  std::remove(path.c_str());
}

TEST(PackedSimulatedPipelineTest, RealBytesThroughUnitsAndSimRings) {
  // Full AIACC data path on real bytes: per-worker gradient tensors are
  // packed into all-reduce units, each unit's bytes flow through a
  // *simulated* ring all-reduce carrying real payloads, results scatter
  // back — and equal the plain average.
  const int world = 4;
  const std::vector<std::size_t> tensor_elems = {37, 501, 8, 129};

  core::GradientRegistry registry;
  for (std::size_t t = 0; t < tensor_elems.size(); ++t) {
    char name[16];
    std::snprintf(name, sizeof(name), "g%02zu", t);
    ASSERT_TRUE(registry.Register(name, tensor_elems[t] * sizeof(float)).ok());
  }
  registry.Finalize();

  // Per-worker gradient data.
  Rng rng(77);
  std::vector<std::vector<std::vector<float>>> grads(world);
  for (int w = 0; w < world; ++w) {
    for (std::size_t t = 0; t < tensor_elems.size(); ++t) {
      std::vector<float> v(tensor_elems[t]);
      for (float& x : v) x = static_cast<float>(rng.Uniform(-5.0, 5.0));
      grads[static_cast<std::size_t>(w)].push_back(std::move(v));
    }
  }
  // Expected averages.
  std::vector<std::vector<float>> expected;
  for (std::size_t t = 0; t < tensor_elems.size(); ++t) {
    std::vector<float> avg(tensor_elems[t], 0.0f);
    for (int w = 0; w < world; ++w) {
      for (std::size_t i = 0; i < avg.size(); ++i) {
        avg[i] += grads[static_cast<std::size_t>(w)][t][i] / world;
      }
    }
    expected.push_back(std::move(avg));
  }

  core::StreamingPacker packer(600);  // forces merge AND split
  for (int id = 0; id < registry.size(); ++id) {
    packer.Add(id, registry.Get(id).bytes);
  }
  packer.Flush();
  std::vector<core::AllReduceUnit> units;
  while (packer.HasReadyUnit()) units.push_back(packer.PopReadyUnit());
  ASSERT_GT(units.size(), 1u);

  sim::Engine engine;
  net::CloudFabric fabric(engine, net::Topology{2, 2, net::TransportKind::kTcp},
                          net::FabricParams{});
  collective::SimCollectives collectives(fabric);

  // Stage per-worker unit buffers, run simulated all-reduces, scatter back.
  std::vector<std::vector<std::vector<float>>> staged(units.size());
  std::vector<std::span<float>> pieces;
  for (std::size_t u = 0; u < units.size(); ++u) {
    staged[u].resize(static_cast<std::size_t>(world));
    collective::SimCollectives::Unit sim_unit;
    sim_unit.bytes_per_rank = static_cast<double>(units[u].TotalBytes());
    for (int w = 0; w < world; ++w) {
      auto& buf = staged[u][static_cast<std::size_t>(w)];
      buf.resize(units[u].TotalBytes() / sizeof(float));
      core::UnitPieces(units[u], grads[static_cast<std::size_t>(w)], pieces);
      collective::ReadPieces(pieces, buf);
      sim_unit.buffers.emplace_back(buf);
    }
    collectives.Start(std::move(sim_unit));
  }
  engine.Run();

  for (int w = 0; w < world; ++w) {
    for (std::size_t u = 0; u < units.size(); ++u) {
      core::UnitPieces(units[u], grads[static_cast<std::size_t>(w)], pieces);
      collective::WritePieces(staged[u][static_cast<std::size_t>(w)], pieces);
    }
    for (std::size_t t = 0; t < tensor_elems.size(); ++t) {
      for (std::size_t i = 0; i < tensor_elems[t]; ++i) {
        ASSERT_NEAR(grads[static_cast<std::size_t>(w)][t][i],
                    expected[t][i], 1e-4)
            << "worker " << w << " tensor " << t << " elem " << i;
      }
    }
  }
}

}  // namespace
}  // namespace aiacc
