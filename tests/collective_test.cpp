// Collective-library tests.
//
// Threaded (functional): real threads, real payloads — ring/hierarchical
// all-reduce, broadcast, multi-channel, across a sweep of world sizes and
// buffer lengths (parameterized).
//
// Simulated (timed): analytic estimates, fluid-vs-detailed agreement, the
// multi-stream bandwidth win, and real-payload reductions through the
// simulated rings.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "collective/simulated.h"
#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "core/sync_bits.h"
#include "transport/faulty.h"
#include "transport/reliable.h"

namespace aiacc::collective {
namespace {

std::vector<std::vector<float>> MakeRankData(int world, std::size_t len,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(static_cast<std::size_t>(world));
  for (auto& v : data) {
    v.resize(len);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-10.0, 10.0));
  }
  return data;
}

std::vector<float> ExpectedSum(const std::vector<std::vector<float>>& data) {
  std::vector<float> sum(data[0].size(), 0.0f);
  for (const auto& v : data) {
    for (std::size_t i = 0; i < v.size(); ++i) sum[i] += v[i];
  }
  return sum;
}

void RunAllRanks(int world, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) threads.emplace_back([&body, r] { body(r); });
  for (auto& t : threads) t.join();
}

// ------------------------------------------------ threaded: parameterized --

struct RingCase {
  int world;
  std::size_t len;
};

class RingAllReduceP : public ::testing::TestWithParam<RingCase> {};

TEST_P(RingAllReduceP, MatchesSequentialSum) {
  const auto [world, len] = GetParam();
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 1000 + world * 17 + len);
  const auto expected = ExpectedSum(data);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                      ReduceOp::kSum).ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-3)
          << "rank " << r << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingAllReduceP,
    ::testing::Values(RingCase{1, 16}, RingCase{2, 16}, RingCase{3, 7},
                      RingCase{4, 64}, RingCase{5, 1}, RingCase{4, 1023},
                      RingCase{8, 256}, RingCase{7, 97}, RingCase{2, 2},
                      RingCase{6, 6}));

class HierarchicalAllReduceP
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HierarchicalAllReduceP, MatchesSequentialAvg) {
  const auto [hosts, gpus] = GetParam();
  const int world = hosts * gpus;
  const std::size_t len = 128;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 77 + world);
  auto expected = ExpectedSum(data);
  for (float& x : expected) x /= static_cast<float>(world);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        HierarchicalAllReduce(comm, gpus, data[static_cast<std::size_t>(rank)],
                              ReduceOp::kAvg).ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HierarchicalAllReduceP,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 4)));

TEST(ThreadedCollectiveTest, MinAndMaxOps) {
  const int world = 4;
  const std::size_t len = 32;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 5);
  auto data_max = data;
  std::vector<float> expected_min(len);
  std::vector<float> expected_max(len);
  for (std::size_t i = 0; i < len; ++i) {
    float lo = data[0][i];
    float hi = data[0][i];
    for (int r = 1; r < world; ++r) {
      lo = std::min(lo, data[static_cast<std::size_t>(r)][i]);
      hi = std::max(hi, data[static_cast<std::size_t>(r)][i]);
    }
    expected_min[i] = lo;
    expected_max[i] = hi;
  }
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                      ReduceOp::kMin).ok());
  });
  transport::InProcTransport tr2(world);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr2, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, data_max[static_cast<std::size_t>(rank)],
                      ReduceOp::kMax).ok());
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(data[static_cast<std::size_t>(r)], expected_min);
    EXPECT_EQ(data_max[static_cast<std::size_t>(r)], expected_max);
  }
}

TEST(ThreadedCollectiveTest, BitVectorMinSyncSemantics) {
  // The decentralized sync protocol: readiness vectors (0/1) min-allreduce
  // to their intersection.
  const int world = 3;
  transport::InProcTransport tr(world);
  std::vector<std::vector<float>> ready = {
      {1, 1, 0, 1, 0}, {1, 0, 1, 1, 0}, {1, 1, 1, 1, 0}};
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, ready[static_cast<std::size_t>(rank)],
                      ReduceOp::kMin).ok());
  });
  const std::vector<float> expected = {1, 0, 0, 1, 0};
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(ready[static_cast<std::size_t>(r)], expected);
  }
}

TEST(ThreadedCollectiveTest, BroadcastFromEveryRoot) {
  const int world = 5;
  const std::size_t len = 33;
  for (int root = 0; root < world; ++root) {
    transport::InProcTransport tr(world);
    auto data = MakeRankData(world, len, 31 + root);
    const auto want = data[static_cast<std::size_t>(root)];
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr, rank, world, 0};
      EXPECT_TRUE(
          Broadcast(comm, root, data[static_cast<std::size_t>(rank)]).ok());
    });
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(data[static_cast<std::size_t>(r)], want) << "root " << root;
    }
  }
}

class MultiChannelP : public ::testing::TestWithParam<int> {};

TEST_P(MultiChannelP, MatchesSingleChannel) {
  const int channels = GetParam();
  const int world = 4;
  const std::size_t len = 1000;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 55);
  auto expected = ExpectedSum(data);
  for (float& x : expected) x /= world;
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        MultiChannelAllReduce(comm, data[static_cast<std::size_t>(rank)],
                              ReduceOp::kAvg, channels).ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, MultiChannelP,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ThreadedCollectiveTest, RingMessageCount) {
  // Each rank sends exactly 2(n-1) messages in a ring all-reduce.
  const int world = 4;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, 64, 3);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                      ReduceOp::kSum).ok());
  });
  EXPECT_EQ(tr.TotalMessages(),
            static_cast<std::uint64_t>(world) * 2 * (world - 1));
}

TEST(ChunkBeginTest, CoversBufferExactly) {
  for (std::size_t len : {0u, 1u, 7u, 64u, 1000u}) {
    for (int n : {1, 2, 3, 7, 16}) {
      EXPECT_EQ(ChunkBegin(len, n, 0), 0u);
      EXPECT_EQ(ChunkBegin(len, n, n), len);
      for (int c = 0; c < n; ++c) {
        EXPECT_LE(ChunkBegin(len, n, c), ChunkBegin(len, n, c + 1));
      }
    }
  }
}

// ------------------------------------------------------------- simulated --

class SimCollectiveTest : public ::testing::Test {
 protected:
  void Build(int hosts, int gpus, net::TransportKind kind) {
    fabric = std::make_unique<net::CloudFabric>(
        engine, net::Topology{hosts, gpus, kind}, net::FabricParams{});
    coll = std::make_unique<SimCollectives>(*fabric);
  }
  sim::Engine engine;
  std::unique_ptr<net::CloudFabric> fabric;
  std::unique_ptr<SimCollectives> coll;
};

TEST_F(SimCollectiveTest, RingTimeMatchesAnalyticEstimate) {
  Build(4, 8, net::TransportKind::kTcp);
  const double bytes = 64e6;
  double done_at = -1.0;
  SimCollectives::Unit unit;
  unit.bytes_per_rank = bytes;
  unit.on_done = [&](double t) { done_at = t; };
  coll->Start(std::move(unit));
  engine.Run();
  EXPECT_NEAR(done_at, coll->EstimateTime(bytes, Algorithm::kRing),
              done_at * 0.01);
}

TEST_F(SimCollectiveTest, HierarchicalTimeMatchesEstimate) {
  Build(4, 8, net::TransportKind::kTcp);
  const double bytes = 64e6;
  double done_at = -1.0;
  SimCollectives::Unit unit;
  unit.bytes_per_rank = bytes;
  unit.algorithm = Algorithm::kHierarchical;
  unit.on_done = [&](double t) { done_at = t; };
  coll->Start(std::move(unit));
  engine.Run();
  EXPECT_NEAR(done_at, coll->EstimateTime(bytes, Algorithm::kHierarchical),
              done_at * 0.01);
}

TEST_F(SimCollectiveTest, FluidAgreesWithDetailedRing) {
  // The macro-flow (fluid) model and the step-level ring must agree on an
  // otherwise idle network (within the latency-folding approximation).
  Build(4, 2, net::TransportKind::kTcp);
  const double bytes = 32e6;
  double fluid = -1.0;
  {
    SimCollectives::Unit unit;
    unit.bytes_per_rank = bytes;
    unit.on_done = [&](double t) { fluid = t; };
    coll->Start(std::move(unit));
    engine.Run();
  }
  sim::Engine engine2;
  net::CloudFabric fabric2(engine2, net::Topology{4, 2, net::TransportKind::kTcp},
                           net::FabricParams{});
  SimCollectives coll2(fabric2);
  double detailed_done = -1.0;
  double detailed_start = engine2.Now();
  {
    SimCollectives::Unit unit;
    unit.bytes_per_rank = bytes;
    unit.on_done = [&](double t) { detailed_done = t; };
    coll2.StartDetailedRing(std::move(unit));
    engine2.Run();
  }
  const double detailed = detailed_done - detailed_start;
  EXPECT_NEAR(fluid, detailed, detailed * 0.15);
}

TEST_F(SimCollectiveTest, MultiStreamSpeedsUpLargeTransfer) {
  // One 96MB unit vs four concurrent 24MB units: the four streams multiplex
  // the NIC past the single-stream cap, finishing ~3x faster (cap is 30%).
  Build(2, 8, net::TransportKind::kTcp);
  const double total = 96e6;
  double single_done = -1.0;
  {
    SimCollectives::Unit unit;
    unit.bytes_per_rank = total;
    unit.on_done = [&](double t) { single_done = t; };
    coll->Start(std::move(unit));
    engine.Run();
  }
  sim::Engine engine2;
  net::CloudFabric fabric2(engine2, net::Topology{2, 8, net::TransportKind::kTcp},
                           net::FabricParams{});
  SimCollectives coll2(fabric2);
  int done = 0;
  double multi_done = -1.0;
  for (int s = 0; s < 4; ++s) {
    SimCollectives::Unit unit;
    unit.bytes_per_rank = total / 4;
    unit.on_done = [&](double t) {
      if (++done == 4) multi_done = t;
    };
    coll2.Start(std::move(unit));
  }
  engine2.Run();
  ASSERT_GT(single_done, 0.0);
  ASSERT_GT(multi_done, 0.0);
  const double speedup = single_done / multi_done;
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 3.5);
}

TEST_F(SimCollectiveTest, PayloadsAreReducedForReal) {
  Build(2, 2, net::TransportKind::kTcp);
  const int world = 4;
  auto data = MakeRankData(world, 50, 123);
  auto expected = ExpectedSum(data);
  for (float& x : expected) x /= world;
  SimCollectives::Unit unit;
  unit.bytes_per_rank = 50 * sizeof(float);
  for (auto& v : data) unit.buffers.emplace_back(v);
  bool done = false;
  unit.on_done = [&](double) { done = true; };
  coll->Start(std::move(unit));
  engine.Run();
  ASSERT_TRUE(done);
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < 50; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-4);
    }
  }
}

TEST_F(SimCollectiveTest, SubgroupAllReduceOnlyTouchesItsHosts) {
  Build(4, 2, net::TransportKind::kTcp);
  // Group spans hosts 0 and 1 only.
  SimCollectives::Unit unit;
  unit.bytes_per_rank = 8e6;
  unit.ranks = {0, 1, 2, 3};  // hosts 0,1
  bool done = false;
  unit.on_done = [&](double) { done = true; };
  coll->Start(std::move(unit));
  engine.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(fabric->network().Stats(fabric->EgressLink(0)).bytes_carried, 0.0);
  EXPECT_GT(fabric->network().Stats(fabric->EgressLink(1)).bytes_carried, 0.0);
  EXPECT_EQ(fabric->network().Stats(fabric->EgressLink(2)).bytes_carried, 0.0);
  EXPECT_EQ(fabric->network().Stats(fabric->EgressLink(3)).bytes_carried, 0.0);
}

TEST_F(SimCollectiveTest, SingleRankCompletesImmediately) {
  Build(1, 1, net::TransportKind::kTcp);
  bool done = false;
  SimCollectives::Unit unit;
  unit.bytes_per_rank = 1e6;
  unit.on_done = [&](double) { done = true; };
  coll->Start(std::move(unit));
  engine.Run();
  EXPECT_TRUE(done);
  EXPECT_LT(engine.Now(), 1e-3);
}

TEST_F(SimCollectiveTest, TimedBroadcastDeliversAndScales) {
  Build(4, 8, net::TransportKind::kTcp);
  double small_done = -1.0;
  coll->Broadcast(8e6, /*root=*/0, {}, [&](double t) { small_done = t; });
  engine.Run();
  ASSERT_GT(small_done, 0.0);

  sim::Engine engine2;
  net::CloudFabric fabric2(engine2,
                           net::Topology{4, 8, net::TransportKind::kTcp},
                           net::FabricParams{});
  SimCollectives coll2(fabric2);
  double big_done = -1.0;
  coll2.Broadcast(80e6, 0, {}, [&](double t) { big_done = t; });
  engine2.Run();
  // 10x the bytes: close to 10x the time (latency is small here).
  EXPECT_GT(big_done, small_done * 8.0);
  EXPECT_LT(big_done, small_done * 12.0);
}

TEST_F(SimCollectiveTest, TimedBroadcastSingleRankImmediate) {
  Build(1, 1, net::TransportKind::kTcp);
  bool done = false;
  coll->Broadcast(1e6, 0, {}, [&](double) { done = true; });
  engine.Run();
  EXPECT_TRUE(done);
  EXPECT_LT(engine.Now(), 1e-3);
}

TEST_F(SimCollectiveTest, TimedBroadcastSubgroupTouchesOnlyItsHosts) {
  Build(4, 2, net::TransportKind::kTcp);
  bool done = false;
  coll->Broadcast(8e6, /*root=*/0, {0, 1, 2, 3},  // hosts 0 and 1
                  [&](double) { done = true; });
  engine.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(fabric->network().Stats(fabric->EgressLink(0)).bytes_carried,
            0.0);
  EXPECT_EQ(fabric->network().Stats(fabric->EgressLink(3)).bytes_carried,
            0.0);
}

TEST_F(SimCollectiveTest, RdmaFasterThanTcp) {
  Build(4, 8, net::TransportKind::kTcp);
  const double bytes = 128e6;
  const double tcp = coll->EstimateTime(bytes, Algorithm::kRing);
  sim::Engine engine2;
  net::CloudFabric rdma_fabric(
      engine2, net::Topology{4, 8, net::TransportKind::kRdma},
      net::FabricParams{});
  SimCollectives rdma_coll(rdma_fabric);
  const double rdma = rdma_coll.EstimateTime(bytes, Algorithm::kRing);
  EXPECT_LT(rdma, tcp);
}

// ------------------------------------- threaded: shutdown robustness ------

// Run the collective on every rank except `missing`, so it can never
// complete; fire Shutdown mid-algorithm. Every participating thread must
// return (join = no deadlock) and whoever was blocked must report non-OK.
// Ranks that legitimately finish before the missing rank matters (e.g.
// early pipeline stages) may return Ok — we require at least one observer.
void ExpectUnblocksOnShutdown(int world, int missing,
                              const std::function<Status(const Comm&)>& op) {
  transport::InProcTransport tr(world);
  std::vector<Status> status(static_cast<std::size_t>(world), Status::Ok());
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    if (r == missing) continue;
    threads.emplace_back([&, r] {
      Comm comm{&tr, r, world, 0};
      status[static_cast<std::size_t>(r)] = op(comm);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  tr.Shutdown();
  for (auto& t : threads) t.join();
  int non_ok = 0;
  for (int r = 0; r < world; ++r) {
    if (r != missing && !status[static_cast<std::size_t>(r)].ok()) ++non_ok;
  }
  EXPECT_GE(non_ok, 1) << "no rank observed the shutdown";
}

TEST(ShutdownUnblocksTest, RingAllReduce) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return RingAllReduce(c, d, ReduceOp::kSum);
  });
}

TEST(ShutdownUnblocksTest, HierarchicalAllReduce) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return HierarchicalAllReduce(c, /*gpus_per_host=*/2, d, ReduceOp::kAvg);
  });
}

TEST(ShutdownUnblocksTest, BroadcastFromMissingRoot) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return Broadcast(c, /*root=*/3, d);
  });
}

TEST(ShutdownUnblocksTest, MultiChannelAllReduce) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(64, 1.0f);
    return MultiChannelAllReduce(c, d, ReduceOp::kSum, /*num_channels=*/3);
  });
}

// --------------------------------------- pooled hot path: bit-exactness --
//
// The zero-allocation hot path (buffer pooling, payload forwarding) must
// not change a single bit of any result. Each collective is compared with
// exact float equality, not a tolerance, against a serial reference in this
// file that performs the same elementwise operations in the same order: the
// ring folds each chunk rank by rank in ring order, and a broadcast is a
// plain copy of the root's buffer.

std::span<const float> ChunkOf(const std::vector<float>& v, int n, int c) {
  const std::size_t b = ChunkBegin(v.size(), n, c);
  return std::span<const float>(v).subspan(b,
                                           ChunkBegin(v.size(), n, c + 1) - b);
}

/// Serial ring all-reduce: chunk c starts as rank c's values and every
/// later rank c+1, c+2, ... folds its own values into the running partial
/// (Accumulate(local, incoming), exactly as a ring step does); every rank
/// ends with the same result.
std::vector<float> SerialRingReference(
    const std::vector<std::vector<float>>& data, ReduceOp op) {
  const int n = static_cast<int>(data.size());
  const ReduceOp inner = op == ReduceOp::kAvg ? ReduceOp::kSum : op;
  std::vector<float> out(data[0].size());
  for (int c = 0; c < n; ++c) {
    const auto first = ChunkOf(data[static_cast<std::size_t>(c)], n, c);
    std::vector<float> partial(first.begin(), first.end());
    for (int k = 1; k < n; ++k) {
      const auto local =
          ChunkOf(data[static_cast<std::size_t>((c + k) % n)], n, c);
      std::vector<float> folded(local.begin(), local.end());
      Accumulate(folded, partial, inner);
      partial = std::move(folded);
    }
    std::copy(partial.begin(), partial.end(),
              out.begin() + static_cast<std::ptrdiff_t>(
                                ChunkBegin(out.size(), n, c)));
  }
  FinalizeAvg(out, n, op);
  return out;
}

std::vector<std::vector<float>> RunPipeline(transport::Transport& tr,
                                            int world, std::size_t len,
                                            ReduceOp op,
                                            common::BufferPool* pool,
                                            std::uint64_t seed) {
  auto data = MakeRankData(world, len, seed);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, /*tag_base=*/0, /*timeout_ms=*/0, pool};
    EXPECT_TRUE(
        RingAllReduce(comm, data[static_cast<std::size_t>(rank)], op).ok());
  });
  return data;
}

void ExpectBitIdentical(const std::vector<std::vector<float>>& want,
                        const std::vector<std::vector<float>>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(want[r].size(), got[r].size());
    if (want[r].empty()) continue;  // data() may be null: UB for memcmp
    ASSERT_EQ(std::memcmp(want[r].data(), got[r].data(),
                          want[r].size() * sizeof(float)),
              0)
        << "rank " << r << " diverged from the reference";
  }
}

class PooledBitExactP
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, ReduceOp>> {
};

TEST_P(PooledBitExactP, PooledRingAllReduceMatchesSerialReferenceBitwise) {
  const auto [world, len, op] = GetParam();
  const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(world) * 131 +
                             len * 7 + static_cast<std::uint64_t>(op);
  const std::vector<std::vector<float>> want(
      static_cast<std::size_t>(world),
      SerialRingReference(MakeRankData(world, len, seed), op));
  transport::InProcTransport pooled_tr(world);
  common::BufferPool pool;
  const auto pooled = RunPipeline(pooled_tr, world, len, op, &pool, seed);
  ExpectBitIdentical(want, pooled);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PooledBitExactP,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),   // world 1..8
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{97},
                                         std::size_t{1023}),  // odd sizes
                       ::testing::Values(ReduceOp::kSum, ReduceOp::kAvg,
                                         ReduceOp::kMin, ReduceOp::kMax)));

TEST(PooledBitExactTest, BroadcastMatchesRootBitwise) {
  const int world = 5;
  const std::size_t len = 175;
  const auto data = MakeRankData(world, len, 4242);
  auto got = data;
  transport::InProcTransport tr(world);
  common::BufferPool pool;
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, /*tag_base=*/0, /*timeout_ms=*/0, &pool};
    EXPECT_TRUE(
        Broadcast(comm, /*root=*/2, got[static_cast<std::size_t>(rank)]).ok());
  });
  ExpectBitIdentical(std::vector<std::vector<float>>(world, data[2]), got);
}

TEST(PooledChaosTest, BitIdenticalUnderLosslessFaults) {
  // Duplication, reordering and delay — but no drops — over the pooled
  // path: the reliable layer de-duplicates and re-orders, so the result
  // must still be bitwise identical to a clean run.
  const int world = 4;
  const std::size_t len = 257;
  for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kAvg, ReduceOp::kMin,
                            ReduceOp::kMax}) {
    const std::uint64_t seed = 31337 + static_cast<std::uint64_t>(op);
    transport::InProcTransport clean_tr(world);
    common::BufferPool clean_pool;
    const auto clean =
        RunPipeline(clean_tr, world, len, op, &clean_pool, seed);

    transport::InProcTransport inner(world);
    transport::FaultSpec spec;
    spec.seed = 99 + static_cast<std::uint64_t>(op);
    spec.all_links.dup_prob = 0.15;
    spec.all_links.reorder_prob = 0.15;
    spec.all_links.delay_prob = 0.25;
    spec.all_links.max_delay_ms = 2.0;
    transport::FaultyTransport chaotic(inner, spec);
    transport::ReliableTransport reliable(chaotic);
    common::BufferPool pool;
    const auto chaos = RunPipeline(reliable, world, len, op, &pool, seed);

    ExpectBitIdentical(clean, chaos);
    const transport::FaultStats stats = chaotic.stats();
    EXPECT_GT(stats.duplicated + stats.reordered + stats.delayed, 0u)
        << "fault schedule did not fire; chaos coverage is vacuous";
    EXPECT_EQ(stats.dropped, 0u);
  }
}

// -------------------------------------------------- pipelined ring slices --
// Depth-d slicing changes only the message framing: every rank still reduces
// the same elements in the same order, so any depth must be bitwise
// identical to the depth-1 baseline (exact equality, no tolerance). Lengths
// are chosen so MultiChannelAllReduce's depth-aware small-payload fallback
// decides the same way at every depth — 7 falls back everywhere, 257/1023
// never do (the largest threshold here is 4 channels x 8 ranks x depth 8 =
// 256 floats) — otherwise the two runs would legitimately decompose (and
// round) differently.

std::vector<std::vector<float>> RunPipelined(int world, std::size_t len,
                                             ReduceOp op, int depth,
                                             int channels,
                                             common::BufferPool* pool,
                                             std::uint64_t seed) {
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, seed);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr,  rank, world, /*tag_base=*/0, /*timeout_ms=*/0,
              pool, depth};
    EXPECT_TRUE(MultiChannelAllReduce(comm, data[static_cast<std::size_t>(rank)],
                                      op, channels)
                    .ok());
  });
  return data;
}

class PipelinedBitExactP
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, std::size_t, ReduceOp>> {};

TEST_P(PipelinedBitExactP, AnyDepthMatchesDepthOneBitwise) {
  const auto [depth, channels, world, len, op] = GetParam();
  const std::uint64_t seed = 77000 + static_cast<std::uint64_t>(depth) * 1009 +
                             static_cast<std::uint64_t>(channels) * 131 +
                             static_cast<std::uint64_t>(world) * 17 + len * 7 +
                             static_cast<std::uint64_t>(op);
  common::BufferPool base_pool;
  const auto base =
      RunPipelined(world, len, op, /*depth=*/1, channels, &base_pool, seed);
  common::BufferPool pool;
  const auto piped = RunPipelined(world, len, op, depth, channels, &pool, seed);
  ExpectBitIdentical(base, piped);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinedBitExactP,
    ::testing::Combine(::testing::Values(2, 4, 8),        // pipeline depth
                       ::testing::Values(1, 4),           // channels
                       ::testing::Values(1, 2, 3, 5, 8),  // world
                       ::testing::Values(std::size_t{7}, std::size_t{257},
                                         std::size_t{1023}),
                       ::testing::Values(ReduceOp::kSum, ReduceOp::kAvg,
                                         ReduceOp::kMin, ReduceOp::kMax)));

TEST(PipelinedBitExactTest, HierarchicalMatchesDepthOneBitwise) {
  // Slicing threads through both nested rings (intra-host + leaders).
  const int hosts = 2;
  const int gpus = 2;
  const int world = hosts * gpus;
  const std::size_t len = 128;
  auto run = [&](int depth, common::BufferPool* pool) {
    transport::InProcTransport tr(world);
    auto data = MakeRankData(world, len, 5150);
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr,  rank, world, /*tag_base=*/0, /*timeout_ms=*/0,
                pool, depth};
      EXPECT_TRUE(HierarchicalAllReduce(comm, gpus,
                                        data[static_cast<std::size_t>(rank)],
                                        ReduceOp::kSum)
                      .ok());
    });
    return data;
  };
  common::BufferPool base_pool;
  common::BufferPool pool;
  ExpectBitIdentical(run(1, &base_pool), run(4, &pool));
}

TEST(PipelinedChaosTest, BitIdenticalUnderLosslessFaults) {
  // Duplication, reordering and delay across a depth-4 pipelined run: the
  // reliable layer's per-(src,tag) sequencing must keep the in-flight slice
  // window coherent, matching a clean depth-1 run bit for bit.
  const int world = 4;
  const std::size_t len = 257;
  for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kAvg, ReduceOp::kMin,
                            ReduceOp::kMax}) {
    const std::uint64_t seed = 86000 + static_cast<std::uint64_t>(op);
    transport::InProcTransport clean_tr(world);
    common::BufferPool clean_pool;
    const auto clean =
        RunPipeline(clean_tr, world, len, op, &clean_pool, seed);

    transport::InProcTransport inner(world);
    transport::FaultSpec spec;
    spec.seed = 4242 + static_cast<std::uint64_t>(op);
    spec.all_links.dup_prob = 0.15;
    spec.all_links.reorder_prob = 0.15;
    spec.all_links.delay_prob = 0.25;
    spec.all_links.max_delay_ms = 2.0;
    transport::FaultyTransport chaotic(inner, spec);
    transport::ReliableTransport reliable(chaotic);
    common::BufferPool pool;
    auto data = MakeRankData(world, len, seed);
    RunAllRanks(world, [&](int rank) {
      Comm comm{&reliable, rank,  world, /*tag_base=*/0, /*timeout_ms=*/0,
                &pool,     /*pipeline_depth=*/4};
      EXPECT_TRUE(
          RingAllReduce(comm, data[static_cast<std::size_t>(rank)], op).ok());
    });

    ExpectBitIdentical(clean, data);
    const transport::FaultStats stats = chaotic.stats();
    EXPECT_GT(stats.duplicated + stats.reordered + stats.delayed, 0u)
        << "fault schedule did not fire; chaos coverage is vacuous";
    EXPECT_EQ(stats.dropped, 0u);
  }
}

TEST(ThreadedCollectiveTest, PipelinedRingMessageCount) {
  // Depth-d slicing multiplies each rank's 2(n-1) chunk sends into
  // 2(n-1)*d_eff slice sends, where d_eff clamps to the per-step chunk size.
  const int world = 4;
  common::BufferPool pool;
  {
    transport::InProcTransport tr(world);
    auto data = MakeRankData(world, 64, 21);  // chunks of 16: depth 4 fits
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr,   rank, world, /*tag_base=*/0, /*timeout_ms=*/0,
                &pool, /*pipeline_depth=*/4};
      EXPECT_TRUE(
          RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                        ReduceOp::kSum).ok());
    });
    EXPECT_EQ(tr.TotalMessages(),
              static_cast<std::uint64_t>(world) * 2 * (world - 1) * 4);
  }
  {
    transport::InProcTransport tr(world);
    auto data = MakeRankData(world, 6, 22);  // 1-float chunks: d_eff = 1
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr,   rank, world, /*tag_base=*/0, /*timeout_ms=*/0,
                &pool, /*pipeline_depth=*/8};
      EXPECT_TRUE(
          RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                        ReduceOp::kSum).ok());
    });
    EXPECT_EQ(tr.TotalMessages(),
              static_cast<std::uint64_t>(world) * 2 * (world - 1));
  }
}

// ------------------------------------------------- out-of-place ring ------
// RingAllReduce(comm, input, output, op) reads the input pieces and writes
// the result into output pieces; each list tiles the buffer. The contract:
// an input that is not aliased with the output is bitwise unchanged, and
// the output holds exactly what the in-place ring computes (for the raw
// wire, what the serial reference computes) — for pieces of one float, for
// pieces that straddle chunk and slice boundaries, for input pieces cut
// differently from the output's, and for input pieces that are the output
// pieces (the engine's unstaged units).

/// Rank data with exact ±0 and mixed signs at the same index across ranks,
/// so kMin/kMax results depend on the operand order (min(+0, -0) keeps the
/// local operand).
std::vector<std::vector<float>> MakeSignedZeroData(int world, std::size_t len,
                                                   std::uint64_t seed) {
  auto data = MakeRankData(world, len, seed);
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; i += 3) {
      const bool positive = (i / 3 + static_cast<std::size_t>(r)) % 2 == 0;
      data[static_cast<std::size_t>(r)][i] = positive ? 0.0f : -0.0f;
    }
  }
  return data;
}

/// Piece sizes cycling through 1-float pieces and pieces wider than a
/// slice, so the layout both splits slices and straddles their boundaries.
/// A nonzero `phase` starts the cycle elsewhere: a different cut.
std::vector<std::size_t> PieceSizes(std::size_t len, std::size_t phase = 0) {
  static constexpr std::size_t kCycle[] = {1, 1, 5, 1, 29, 3, 64, 1, 17};
  std::vector<std::size_t> sizes;
  std::size_t covered = 0;
  for (std::size_t i = phase; covered < len; ++i) {
    const std::size_t take =
        std::min(kCycle[i % std::size(kCycle)], len - covered);
    sizes.push_back(take);
    covered += take;
  }
  return sizes;
}

/// True if some piece [b, e) has a boundary strictly inside it.
bool SomePieceStraddles(const std::vector<std::size_t>& sizes,
                        const std::vector<std::size_t>& boundaries) {
  std::size_t b = 0;
  for (const std::size_t size : sizes) {
    for (const std::size_t x : boundaries) {
      if (b < x && x < b + size) return true;
    }
    b += size;
  }
  return false;
}

/// How the ring's input pieces relate to its output pieces.
enum class InputTiling {
  kContiguous,  // one piece: the rank's whole input buffer
  kSeparate,    // the input buffer, cut differently from the output
  kAliased,     // the output pieces themselves, filled with the input first
};

/// Spans of `buffer` cut in `sizes` order.
std::vector<std::span<float>> CutPieces(std::span<float> buffer,
                                        const std::vector<std::size_t>& sizes) {
  std::vector<std::span<float>> pieces;
  std::size_t at = 0;
  for (const std::size_t size : sizes) {
    pieces.push_back(buffer.subspan(at, size));
    at += size;
  }
  return pieces;
}

/// The input cut of InputTiling::kSeparate.
std::vector<std::size_t> SeparateInputSizes(std::size_t len) {
  return PieceSizes(len, /*phase=*/4);
}

/// Runs the out-of-place ring on every rank: each rank's output pieces are
/// carved from one output buffer in `sizes` order, pre-filled with a NaN
/// sentinel unless the input is aliased. Returns the output buffers;
/// `inputs` must come back unchanged.
std::vector<std::vector<float>> RunOutOfPlace(
    transport::Transport& tr, const std::vector<std::vector<float>>& inputs,
    const std::vector<std::size_t>& sizes, ReduceOp op, int depth,
    compress::CodecKind codec, int tag_base, std::int64_t timeout_ms,
    std::vector<Status>* status,
    InputTiling tiling = InputTiling::kContiguous) {
  const int world = static_cast<int>(inputs.size());
  const std::size_t len = inputs[0].size();
  std::vector<std::vector<float>> out(
      static_cast<std::size_t>(world),
      std::vector<float>(len, std::numeric_limits<float>::quiet_NaN()));
  if (tiling == InputTiling::kAliased) out = inputs;
  status->assign(static_cast<std::size_t>(world), Status::Ok());
  std::vector<common::BufferPool> pools(static_cast<std::size_t>(world));
  RunAllRanks(world, [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    const std::vector<std::span<float>> pieces = CutPieces(out[r], sizes);
    // The ring never writes input pieces that are not aliased with its
    // output (the callers check `inputs` afterwards), so a mutable view of
    // the const inputs is only ever read.
    const std::span<float> input(const_cast<float*>(inputs[r].data()), len);
    std::vector<std::span<float>> input_pieces;
    switch (tiling) {
      case InputTiling::kContiguous:
        input_pieces = {input};
        break;
      case InputTiling::kSeparate:
        input_pieces = CutPieces(input, SeparateInputSizes(len));
        break;
      case InputTiling::kAliased:
        input_pieces = pieces;
        break;
    }
    Comm comm{&tr, rank, world, tag_base, timeout_ms, &pools[r], depth};
    comm.codec.kind = codec;
    (*status)[r] = RingAllReduce(comm, input_pieces, pieces, op);
  });
  return out;
}

class OutOfPlaceRingP
    : public ::testing::TestWithParam<
          std::tuple<int, int, compress::CodecKind, ReduceOp, InputTiling>> {
};

TEST_P(OutOfPlaceRingP, InputUntouchedAndPiecesMatchReferenceBitwise) {
  const auto [world, depth, codec, op, tiling] = GetParam();
  const std::size_t len = 1031;  // prime: every chunk and slice is uneven
  const auto inputs = MakeSignedZeroData(
      world, len, 515 + static_cast<std::uint64_t>(world) * 7 +
                      static_cast<std::uint64_t>(depth));
  const auto before = inputs;
  const std::vector<std::size_t> sizes = PieceSizes(len);
  if (world > 1) {
    std::vector<std::size_t> chunk_edges;
    std::vector<std::size_t> slice_edges;
    const int d = std::max(depth, 2);  // slice edges inside chunk 0
    for (int c = 1; c < world; ++c) {
      chunk_edges.push_back(ChunkBegin(len, world, c));
    }
    const std::size_t chunk0 = ChunkBegin(len, world, 1);
    for (int k = 1; k < d; ++k) {
      slice_edges.push_back(ChunkBegin(chunk0, d, k));
    }
    for (const auto& cut : {sizes, SeparateInputSizes(len)}) {
      ASSERT_TRUE(SomePieceStraddles(cut, chunk_edges));
      ASSERT_TRUE(SomePieceStraddles(cut, slice_edges));
    }
    ASSERT_NE(sizes, SeparateInputSizes(len));
  }

  transport::InProcTransport tr(world);
  std::vector<Status> status;
  const auto got = RunOutOfPlace(tr, inputs, sizes, op, depth, codec,
                                 /*tag_base=*/0, /*timeout_ms=*/0, &status,
                                 tiling);
  for (const Status& st : status) ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectBitIdentical(before, inputs);

  // The in-place ring on the same inputs, same depth and codec.
  auto in_place = inputs;
  transport::InProcTransport tr2(world);
  common::BufferPool pool;
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr2, rank, world, /*tag_base=*/0, /*timeout_ms=*/0, &pool,
              depth};
    comm.codec.kind = codec;
    EXPECT_TRUE(
        RingAllReduce(comm, in_place[static_cast<std::size_t>(rank)], op).ok());
  });
  ExpectBitIdentical(in_place, got);
  if (codec == compress::CodecKind::kNone) {
    const std::vector<std::vector<float>> want(
        static_cast<std::size_t>(world), SerialRingReference(inputs, op));
    ExpectBitIdentical(want, got);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OutOfPlaceRingP,
    ::testing::Combine(::testing::Range(1, 9),      // world 1..8
                       ::testing::Values(1, 4, 8),  // pipeline depth
                       ::testing::Values(compress::CodecKind::kNone,
                                         compress::CodecKind::kFp16),
                       ::testing::Values(ReduceOp::kSum, ReduceOp::kAvg,
                                         ReduceOp::kMin, ReduceOp::kMax),
                       ::testing::Values(InputTiling::kContiguous,
                                         InputTiling::kSeparate,
                                         InputTiling::kAliased)));

TEST(OutOfPlaceRingTest, CrashMidAllGatherLeavesInputForARerun) {
  // Rank 2 crashes once its three reduce-scatter sends are out (depth 1,
  // 4 ranks: 6 sends per all-reduce). Every survivor finishes the
  // reduce-scatter, writes its own reduced chunk and 0-2 all-gathered
  // chunks into its pieces, then misses its deadline. The input must be
  // untouched, so a rerun on fresh tags from that same input — the
  // engine's tier-2 retry — yields the reference result bit for bit.
  const int world = 4;
  const int crashed = 2;
  const std::size_t len = 64;
  const auto inputs = MakeRankData(world, len, 4711);
  const auto before = inputs;
  const std::vector<std::size_t> sizes = PieceSizes(len);

  transport::InProcTransport inner(world);
  transport::FaultSpec spec;
  spec.crash_rank = crashed;
  spec.crash_after_sends = 3;
  transport::FaultyTransport faulty(inner, spec);
  std::vector<Status> status;
  const auto partial = RunOutOfPlace(faulty, inputs, sizes, ReduceOp::kAvg,
                                     /*depth=*/1, compress::CodecKind::kNone,
                                     /*tag_base=*/0, /*timeout_ms=*/200,
                                     &status);
  ExpectBitIdentical(before, inputs);
  const auto written = [](const std::vector<float>& v) {
    return std::count_if(v.begin(), v.end(),
                         [](float x) { return !std::isnan(x); });
  };
  for (int r = 0; r < world; ++r) {
    if (r == crashed) continue;  // its own outcome races the blackhole
    const auto ri = static_cast<std::size_t>(r);
    EXPECT_FALSE(status[ri].ok()) << "rank " << r;
    EXPECT_GT(written(partial[ri]), 0) << "rank " << r;
    EXPECT_LT(written(partial[ri]), static_cast<std::ptrdiff_t>(len))
        << "rank " << r;
  }

  // Rerun on the healthy wire underneath, on fresh tags: the failed
  // attempt's stranded messages sit on the old tags and are never read.
  const auto rerun = RunOutOfPlace(inner, inputs, sizes, ReduceOp::kAvg,
                                   /*depth=*/1, compress::CodecKind::kNone,
                                   /*tag_base=*/8, /*timeout_ms=*/2000,
                                   &status);
  for (const Status& st : status) ASSERT_TRUE(st.ok()) << st.ToString();
  const std::vector<std::vector<float>> want(
      static_cast<std::size_t>(world),
      SerialRingReference(inputs, ReduceOp::kAvg));
  ExpectBitIdentical(want, rerun);
}

// ------------------------------------------------ bit-packed sync rounds --

TEST(ReduceOpTest, BitAndIsExactBitwiseIntersection) {
  // Arbitrary 32-bit lane patterns — quiet/signalling NaNs, denormals, -0,
  // all-ones — must AND exactly: no lane may be canonicalized on the way
  // through Accumulate.
  const std::uint32_t pa[] = {0xFFFFFFFFu, 0x7FC00001u, 0x7F800001u,
                              0x00000001u, 0x80000000u, 0xDEADBEEFu,
                              0x00000000u, 0x3F800000u, 0x00400000u,
                              0xFFFFFFFFu, 0x12345678u};
  const std::uint32_t pb[] = {0x12345678u, 0xFFC00003u, 0xFF800001u,
                              0x00000003u, 0xFFFFFFFFu, 0xBEEFDEADu,
                              0xFFFFFFFFu, 0x3F800000u, 0x00C00000u,
                              0x7FFFFFFFu, 0x87654321u};
  const std::size_t n = std::size(pa);  // > 8: vector body plus scalar tail
  std::vector<float> a(n);
  std::vector<float> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = std::bit_cast<float>(pa[i]);
    b[i] = std::bit_cast<float>(pb[i]);
  }
  Accumulate(a, b, ReduceOp::kBitAnd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i]), pa[i] & pb[i])
        << "lane " << i;
  }
}

TEST(ThreadedCollectiveTest, PackedSyncBitsMatchLegacyMinEncoding) {
  // The bit-packed sync round (kBitAnd over 32-bit lanes) must compute the
  // exact readiness intersection the legacy one-float-per-gradient kMin
  // encoding did, while moving 1/32 the payload bytes per round.
  const int world = 4;
  const std::size_t n_bits = 2048;  // divisible by 32: exact 32x shrink
  Rng rng(97531);
  std::vector<BitVector> ready(static_cast<std::size_t>(world),
                               BitVector(n_bits));
  std::vector<std::vector<float>> legacy(
      static_cast<std::size_t>(world), std::vector<float>(n_bits));
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < n_bits; ++i) {
      const bool bit = rng.Uniform(0.0, 1.0) < 0.8;
      ready[static_cast<std::size_t>(r)].Assign(i, bit);
      legacy[static_cast<std::size_t>(r)][i] = bit ? 1.0f : 0.0f;
    }
  }

  transport::InProcTransport legacy_tr(world);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&legacy_tr, rank, world, 0};
    EXPECT_TRUE(RingAllReduce(comm, legacy[static_cast<std::size_t>(rank)],
                              ReduceOp::kMin)
                    .ok());
  });

  const std::size_t words = core::SyncWordCount(n_bits);
  ASSERT_EQ(words, n_bits / 32);
  std::vector<std::vector<float>> packed(
      static_cast<std::size_t>(world), std::vector<float>(words));
  transport::InProcTransport packed_tr(world);
  RunAllRanks(world, [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    core::PackSyncBits(ready[r], packed[r]);
    Comm comm{&packed_tr, rank, world, 0};
    EXPECT_TRUE(RingAllReduce(comm, packed[r], ReduceOp::kBitAnd).ok());
  });

  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < n_bits; ++i) {
      ASSERT_EQ(core::SyncBitSet(packed[static_cast<std::size_t>(r)], i),
                legacy[static_cast<std::size_t>(r)][i] == 1.0f)
          << "rank " << r << " bit " << i;
    }
  }
  // Same message count, 1/32 the floats per message: exactly 32x fewer
  // payload bytes over the wire.
  EXPECT_EQ(legacy_tr.TotalMessages(), packed_tr.TotalMessages());
  EXPECT_EQ(legacy_tr.TotalPayloadBytes(),
            32 * packed_tr.TotalPayloadBytes());
}

}  // namespace
}  // namespace aiacc::collective
