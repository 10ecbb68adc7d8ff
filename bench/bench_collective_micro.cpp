// Microbenchmarks (google-benchmark) of the engineering substrate:
//   * real threaded ring / hierarchical / multi-channel all-reduce
//     (wall-clock, real payloads, real threads);
//   * simulated-collective event throughput (how fast the DES executes);
//   * streaming packer throughput.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "collective/simulated.h"
#include "collective/threaded.h"
#include "common/rng.h"
#include "core/aiacc_engine.h"
#include "core/packing.h"
#include "core/registry.h"
#include "dnn/zoo.h"

namespace {

using namespace aiacc;

void BM_ThreadedRingAllReduce(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const std::size_t elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    transport::InProcTransport tr(world);
    std::vector<std::vector<float>> data(static_cast<std::size_t>(world),
                                         std::vector<float>(elems, 1.0f));
    state.ResumeTiming();
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collective::Comm comm{&tr, r, world, 0};
        Status st =
            collective::RingAllReduce(comm, data[static_cast<std::size_t>(r)],
                                      collective::ReduceOp::kSum);
        if (!st.ok()) {
          std::fprintf(stderr, "ring all-reduce failed: %s\n",
                       st.ToString().c_str());
          std::exit(2);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          world * elems * sizeof(float));
}
BENCHMARK(BM_ThreadedRingAllReduce)
    ->Args({2, 1 << 16})
    ->Args({4, 1 << 16})
    ->Args({4, 1 << 20})
    ->Unit(benchmark::kMillisecond);

void BM_ThreadedMultiChannel(benchmark::State& state) {
  const int world = 4;
  const int channels = static_cast<int>(state.range(0));
  const std::size_t elems = 1 << 20;
  for (auto _ : state) {
    state.PauseTiming();
    transport::InProcTransport tr(world);
    std::vector<std::vector<float>> data(static_cast<std::size_t>(world),
                                         std::vector<float>(elems, 1.0f));
    state.ResumeTiming();
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collective::Comm comm{&tr, r, world, 0};
        Status st = collective::MultiChannelAllReduce(
            comm, data[static_cast<std::size_t>(r)],
            collective::ReduceOp::kAvg, channels);
        if (!st.ok()) {
          std::fprintf(stderr, "multi-channel all-reduce failed: %s\n",
                       st.ToString().c_str());
          std::exit(2);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          world * elems * sizeof(float));
}
BENCHMARK(BM_ThreadedMultiChannel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedAllReduceEvents(benchmark::State& state) {
  // How many simulated all-reduce units per second the DES sustains at a
  // 256-GPU topology (the cost that bounds big sweeps).
  const int units = 64;
  for (auto _ : state) {
    sim::Engine engine;
    net::CloudFabric fabric(engine,
                            net::Topology{32, 8, net::TransportKind::kTcp},
                            net::FabricParams{});
    collective::SimCollectives coll(fabric);
    int done = 0;
    for (int u = 0; u < units; ++u) {
      collective::SimCollectives::Unit unit;
      unit.bytes_per_rank = 8 << 20;
      unit.on_done = [&done](double) { ++done; };
      coll.Start(std::move(unit));
    }
    engine.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          units);
}
BENCHMARK(BM_SimulatedAllReduceEvents);

void BM_StreamingPacker(benchmark::State& state) {
  const auto model = dnn::MakeResNet50();
  const auto registry = core::GradientRegistry::FromModel(model);
  for (auto _ : state) {
    core::StreamingPacker packer(8u << 20);
    for (int id = 0; id < registry.size(); ++id) {
      packer.Add(id, registry.Get(id).bytes);
    }
    packer.Flush();
    while (packer.HasReadyUnit()) {
      auto unit = packer.PopReadyUnit();
      benchmark::DoNotOptimize(unit);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          registry.size());
}
BENCHMARK(BM_StreamingPacker);

void BM_FullSimulatedIteration(benchmark::State& state) {
  // Wall-clock cost of simulating one AIACC training iteration at scale —
  // the unit of work behind every figure bench.
  const int hosts = static_cast<int>(state.range(0));
  dnn::ModelDescriptor model = dnn::MakeResNet50();
  sim::Engine engine;
  net::CloudFabric fabric(engine,
                          net::Topology{hosts, 8, net::TransportKind::kTcp},
                          net::FabricParams{});
  collective::SimCollectives coll(fabric);
  core::WorkloadSetup setup;
  setup.fabric = &fabric;
  setup.collectives = &coll;
  setup.model = &model;
  setup.batch_per_gpu = 64;
  core::AiaccEngine ddl(setup, core::CommConfig{});
  for (auto _ : state) {
    auto stats = ddl.RunIterations(1);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_FullSimulatedIteration)->Arg(4)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
