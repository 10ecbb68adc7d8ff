// Property-based suites: invariants that must hold across the whole
// (model x engine x topology) grid, not just at hand-picked points.
//
//   * physicality: cluster throughput never exceeds the linear ideal;
//   * conservation: all-reduce engines move ~2*S*(n-1)/n bytes per NIC
//     per iteration, independent of engine strategy;
//   * dominance: AIACC is never slower than the single-stream all-reduce
//     baselines on multi-node topologies;
//   * monotonicity: more streams never hurt AIACC (up to jitter), larger
//     batches increase per-iteration samples;
//   * network: link byte accounting matches flow payloads exactly.
#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "collective/threaded.h"
#include "common/rng.h"
#include "dnn/zoo.h"
#include "net/network.h"
#include "trainer/harness.h"
#include "transport/faulty.h"
#include "transport/reliable.h"

namespace aiacc::trainer {
namespace {

using GridParam = std::tuple<const char*, int>;  // model, gpus

class EngineGridP : public ::testing::TestWithParam<GridParam> {};

RunSpec SpecFor(const char* model, int gpus, EngineKind engine) {
  RunSpec spec;
  spec.model_name = model;
  spec.topology = MakeTopology(gpus);
  spec.engine = engine;
  spec.batch_per_gpu = std::string(model) == "bert-large" ? 8 : 64;
  spec.warmup_iterations = 1;
  spec.measure_iterations = 3;
  return spec;
}

TEST_P(EngineGridP, ThroughputWithinPhysicalBounds) {
  const auto [model, gpus] = GetParam();
  const double single = ::aiacc::trainer::Run(SpecFor(model, 1, EngineKind::kAiacc)).throughput;
  for (EngineKind engine :
       {EngineKind::kAiacc, EngineKind::kHorovod, EngineKind::kPytorchDdp,
        EngineKind::kByteps, EngineKind::kMxnetKvstore}) {
    const double thr = ::aiacc::trainer::Run(SpecFor(model, gpus, engine)).throughput;
    EXPECT_GT(thr, 0.0) << ToString(engine);
    // Never better than linear scaling of the single-GPU compute bound.
    EXPECT_LE(thr, single * gpus * 1.02) << ToString(engine);
  }
}

TEST_P(EngineGridP, AiaccDominatesSingleStreamBaselines) {
  const auto [model, gpus] = GetParam();
  if (gpus <= 8) GTEST_SKIP() << "single host: engines tie";
  const double aiacc = ::aiacc::trainer::Run(SpecFor(model, gpus, EngineKind::kAiacc)).throughput;
  const double horovod =
      ::aiacc::trainer::Run(SpecFor(model, gpus, EngineKind::kHorovod)).throughput;
  const double ddp =
      ::aiacc::trainer::Run(SpecFor(model, gpus, EngineKind::kPytorchDdp)).throughput;
  EXPECT_GE(aiacc, horovod * 0.99);
  EXPECT_GE(aiacc, ddp * 0.99);
}

TEST_P(EngineGridP, AllReduceWireVolumeMatchesTheory) {
  const auto [model, gpus] = GetParam();
  if (gpus <= 8) GTEST_SKIP() << "single host: NVLink only";
  const auto descriptor = dnn::MakeModelByName(model);
  const double s = static_cast<double>(descriptor.TotalParameterBytes());
  const int n = gpus;
  const double expected = 2.0 * s * (n - 1) / n;
  for (EngineKind engine : {EngineKind::kAiacc, EngineKind::kHorovod,
                            EngineKind::kPytorchDdp}) {
    const auto result = ::aiacc::trainer::Run(SpecFor(model, gpus, engine));
    EXPECT_NEAR(result.last_iteration.comm_bytes_per_nic, expected,
                expected * 0.02)
        << ToString(engine);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineGridP,
    ::testing::Values(GridParam{"resnet50", 8}, GridParam{"resnet50", 32},
                      GridParam{"resnet50", 128}, GridParam{"vgg16", 32},
                      GridParam{"resnet101", 32}, GridParam{"bert-large", 32},
                      GridParam{"transformer", 32}));

class StreamMonotonicityP : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamMonotonicityP, MoreStreamsNeverHurt) {
  const char* model = GetParam();
  double prev = 0.0;
  for (int streams : {1, 2, 4, 8, 16}) {
    RunSpec spec = SpecFor(model, 32, EngineKind::kAiacc);
    spec.aiacc_config.num_streams = streams;
    const double thr = ::aiacc::trainer::Run(spec).throughput;
    EXPECT_GE(thr, prev * 0.99) << streams << " streams";
    prev = thr;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, StreamMonotonicityP,
                         ::testing::Values("resnet50", "vgg16", "bert-large"));

TEST(EnginePropertyTest, DeterministicAcrossRuns) {
  const RunSpec spec = SpecFor("resnet50", 32, EngineKind::kAiacc);
  const double a = ::aiacc::trainer::Run(spec).throughput;
  const double b = ::aiacc::trainer::Run(spec).throughput;
  EXPECT_EQ(a, b);
}

TEST(EnginePropertyTest, RdmaNeverSlowerThanTcp) {
  for (const char* model : {"resnet50", "bert-large", "gpt2-xl"}) {
    RunSpec tcp = SpecFor(model, 32, EngineKind::kAiacc);
    RunSpec rdma = tcp;
    rdma.topology = MakeTopology(32, 8, net::TransportKind::kRdma);
    EXPECT_GE(::aiacc::trainer::Run(rdma).throughput, ::aiacc::trainer::Run(tcp).throughput * 0.999) << model;
  }
}

TEST(EnginePropertyTest, Fp16WireNeverSlowerWhenGranularityScaled) {
  for (const char* model : {"resnet50", "bert-large"}) {
    RunSpec f32 = SpecFor(model, 64, EngineKind::kAiacc);
    RunSpec f16 = f32;
    f16.wire_dtype = dnn::DType::kF16;
    f16.aiacc_config.granularity_bytes /= 2;
    f16.aiacc_config.min_bucket_bytes /= 2;
    EXPECT_GE(::aiacc::trainer::Run(f16).throughput, ::aiacc::trainer::Run(f32).throughput * 0.995) << model;
  }
}

TEST(EnginePropertyTest, JitteredRunsVaryButGeomeanIsStable) {
  // §VII-D methodology: the paper measures each setup 5 times and reports
  // the geometric mean. With 2% log-normal compute jitter, individual
  // repeats differ but the 5-run geomean stays within a tight band of the
  // deterministic result.
  RunSpec base = SpecFor("resnet50", 32, EngineKind::kAiacc);
  const double deterministic = ::aiacc::trainer::Run(base).throughput;

  RunSpec jittered = base;
  jittered.compute_jitter_sigma = 0.02;
  const double single_a = ::aiacc::trainer::Run(jittered).throughput;
  RunSpec jittered_b = jittered;
  jittered_b.repeats = 1;
  // Different seed path: use repeats>1 to force distinct seeds.
  RunSpec five = jittered;
  five.repeats = 5;
  const double geomean = ::aiacc::trainer::Run(five).throughput;

  EXPECT_NE(single_a, deterministic);  // jitter is really applied
  EXPECT_NEAR(geomean, deterministic, deterministic * 0.03);
}

TEST(EnginePropertyTest, EngineOrderingStableUnderJitter) {
  // The paper's conclusions survive measurement noise: with 3% jitter the
  // AIACC > Horovod ordering at 32 GPUs holds for every seed.
  for (int seed_round = 0; seed_round < 3; ++seed_round) {
    RunSpec aiacc_spec = SpecFor("vgg16", 32, EngineKind::kAiacc);
    aiacc_spec.compute_jitter_sigma = 0.03;
    aiacc_spec.repeats = 3;
    RunSpec horovod_spec = SpecFor("vgg16", 32, EngineKind::kHorovod);
    horovod_spec.compute_jitter_sigma = 0.03;
    horovod_spec.repeats = 3;
    EXPECT_GT(::aiacc::trainer::Run(aiacc_spec).throughput,
              ::aiacc::trainer::Run(horovod_spec).throughput);
  }
}

TEST(EnginePropertyTest, CongestionDegradesThroughputMonotonically) {
  // §V-B: foreign traffic on one NIC slows training; more load, more slow.
  double prev = 1e18;
  for (double load : {0.0, 0.5, 0.7, 0.85}) {
    RunSpec spec = SpecFor("vgg16", 32, EngineKind::kAiacc);
    spec.background_load = load;
    const double thr = ::aiacc::trainer::Run(spec).throughput;
    EXPECT_LE(thr, prev * 1.001) << "load " << load;
    EXPECT_GT(thr, 0.0);
    prev = thr;
  }
}

TEST(EnginePropertyTest, TreeAllReduceMoreRobustUnderCongestion) {
  // §V-B: the hierarchical algorithm "is useful when some of the physical
  // network links become congested".
  RunSpec ring = SpecFor("vgg16", 32, EngineKind::kAiacc);
  ring.background_load = 0.7;
  RunSpec tree = ring;
  tree.aiacc_config.algorithm = collective::Algorithm::kHierarchical;
  EXPECT_GT(::aiacc::trainer::Run(tree).throughput,
            ::aiacc::trainer::Run(ring).throughput);
}

// ----------------------------------------------------- network invariants --

TEST(NetworkPropertyTest, LinkAccountingMatchesPayloads) {
  // Whatever the arrival pattern, total bytes carried by a single link must
  // equal the sum of payloads that traversed it.
  sim::Engine engine;
  net::Network network(engine);
  const auto link = network.AddLink("l", 1000.0);
  Rng rng(17);
  double expected = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double bytes = rng.Uniform(10.0, 5000.0);
    const double start = rng.Uniform(0.0, 20.0);
    const double cap = rng.Chance(0.5) ? 300.0 : net::Network::kUncapped;
    expected += bytes;
    engine.ScheduleAt(start, [&network, link, bytes, cap] {
      network.StartFlow({{link}, bytes, cap, 0.0, nullptr});
    });
  }
  engine.Run();
  // Completion uses a 1-byte epsilon (float-drift guard), so each flow may
  // under-account by at most one byte.
  EXPECT_NEAR(network.Stats(link).bytes_carried, expected, 50.0);
  EXPECT_EQ(network.ActiveFlows(), 0u);
}

TEST(NetworkPropertyTest, CompletionOrderRespectsSizeAtEqualShare) {
  // Uncapped flows on one link starting together finish in size order.
  sim::Engine engine;
  net::Network network(engine);
  const auto link = network.AddLink("l", 100.0);
  std::vector<int> order;
  const double sizes[] = {100.0, 300.0, 200.0};
  for (int i = 0; i < 3; ++i) {
    network.StartFlow({{link},
                       sizes[i],
                       net::Network::kUncapped,
                       0.0,
                       [&order, i] { order.push_back(i); }});
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(NetworkPropertyTest, AggregateRateNeverExceedsCapacity) {
  sim::Engine engine;
  net::Network network(engine);
  const auto link = network.AddLink("l", 100.0);
  Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    network.StartFlow({{link}, rng.Uniform(50.0, 500.0),
                       rng.Uniform(5.0, 200.0), rng.Uniform(0.0, 3.0),
                       nullptr});
  }
  // Sample instantaneous aggregate rate at several times.
  for (double t : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    engine.RunUntil(t);
    double total = 0.0;
    // FlowRate is only exposed per id; recompute via utilization over a
    // window instead: check busy integral does not exceed capacity * time.
    total = network.Stats(link).busy_integral;
    EXPECT_LE(total, 100.0 * t * (1.0 + 1e-9));
  }
  engine.Run();
}

}  // namespace
}  // namespace aiacc::trainer

// ------------------------------------------------ seeded-fault property --

namespace aiacc::collective {
namespace {

// Under any randomized seeded fault schedule without crashes, a collective
// with a deadline must terminate in bounded time on every rank, and the
// outcome is all-or-nothing sound: if every rank reports Ok the results are
// exactly correct; otherwise at least one rank reported a non-OK status.
// (Lossless schedules — no drops — must always land in the first bucket.)
struct FaultOutcome {
  bool all_ok = true;
  int non_ok = 0;
};

template <typename CollectiveFn>
FaultOutcome RunUnderSchedule(int world, const transport::FaultSpec& faults,
                              std::vector<std::vector<float>>& data,
                              const CollectiveFn& op) {
  transport::InProcTransport inner(world);
  transport::FaultyTransport faulty(inner, faults);
  // Tier 1 off, as the engine stacks it over faults: the reliable layer
  // dedups and resequences but never resends, so a drop surfaces as a
  // receive deadline.
  transport::ReliableTransport tr(faulty, transport::WithoutResend({}));
  std::vector<Status> status(static_cast<std::size_t>(world), Status::Ok());
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      Comm comm{&tr, r, world, 0, /*timeout_ms=*/500};
      status[static_cast<std::size_t>(r)] =
          op(comm, data[static_cast<std::size_t>(r)]);
    });
  }
  for (auto& t : threads) t.join();
  FaultOutcome outcome;
  for (const Status& st : status) {
    if (!st.ok()) {
      outcome.all_ok = false;
      ++outcome.non_ok;
    }
  }
  return outcome;
}

transport::FaultSpec RandomSchedule(std::uint64_t seed, bool allow_drops) {
  Rng rng(seed * 7919 + 13);
  transport::FaultSpec faults;
  faults.seed = seed;
  faults.all_links.dup_prob = rng.Uniform(0.0, 0.2);
  faults.all_links.reorder_prob = rng.Uniform(0.0, 0.2);
  faults.all_links.delay_prob = rng.Uniform(0.0, 0.1);
  faults.all_links.max_delay_ms = 2.0;
  if (allow_drops && rng.Chance(0.5)) {
    faults.all_links.drop_prob = rng.Uniform(0.005, 0.02);
  }
  return faults;
}

TEST(FaultSpecProperty, RingAllReduceExactOrNonOkNeverHangs) {
  const int world = 4;
  const std::size_t len = 96;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const transport::FaultSpec faults = RandomSchedule(seed, true);
    Rng rng(seed);
    std::vector<std::vector<float>> data(world);
    std::vector<float> expected(len, 0.0f);
    for (auto& v : data) {
      v.resize(len);
      for (float& x : v) x = static_cast<float>(rng.Uniform(-4.0, 4.0));
      for (std::size_t i = 0; i < len; ++i) expected[i] += v[i];
    }
    const auto outcome = RunUnderSchedule(
        world, faults, data, [](const Comm& c, std::span<float> d) {
          return RingAllReduce(c, d, ReduceOp::kSum);
        });
    if (outcome.all_ok) {
      for (int r = 0; r < world; ++r) {
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-3)
              << "seed " << seed << " rank " << r << " element " << i;
        }
      }
    } else {
      EXPECT_GE(outcome.non_ok, 1);
    }
    if (faults.all_links.drop_prob == 0.0) {
      EXPECT_TRUE(outcome.all_ok)
          << "lossless schedule " << seed << " must succeed";
    }
  }
}

TEST(FaultSpecProperty, HierarchicalAllReduceExactOrNonOkNeverHangs) {
  const int world = 4;
  const std::size_t len = 64;
  for (std::uint64_t seed = 101; seed <= 108; ++seed) {
    const transport::FaultSpec faults = RandomSchedule(seed, true);
    Rng rng(seed);
    std::vector<std::vector<float>> data(world);
    std::vector<float> expected(len, 0.0f);
    for (auto& v : data) {
      v.resize(len);
      for (float& x : v) x = static_cast<float>(rng.Uniform(-4.0, 4.0));
      for (std::size_t i = 0; i < len; ++i) expected[i] += v[i];
    }
    const auto outcome = RunUnderSchedule(
        world, faults, data, [](const Comm& c, std::span<float> d) {
          return HierarchicalAllReduce(c, /*gpus_per_host=*/2, d,
                                       ReduceOp::kSum);
        });
    if (outcome.all_ok) {
      for (int r = 0; r < world; ++r) {
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-3)
              << "seed " << seed << " rank " << r << " element " << i;
        }
      }
    } else {
      EXPECT_GE(outcome.non_ok, 1);
    }
    if (faults.all_links.drop_prob == 0.0) {
      EXPECT_TRUE(outcome.all_ok)
          << "lossless schedule " << seed << " must succeed";
    }
  }
}

}  // namespace
}  // namespace aiacc::collective
