// Hot-path regression tests: the size-classed BufferPool, the vectorized
// reduction kernels, the zero-allocation steady state of the pooled
// collectives, the persistent multi-channel worker pool, and the shared
// tag-namespace layout. Runs under the tsan preset (the pool and worker
// pool are cross-thread by design).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "collective/tags.h"
#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/stats.h"
#include "transport/inproc.h"

namespace aiacc {
namespace {

using collective::Comm;
using collective::ReduceOp;
using common::BufferPool;

// ------------------------------------------------------------ BufferPool --

TEST(BufferPoolTest, AcquireSizesAndClassCapacities) {
  BufferPool pool;
  // ANALYZER-OK(pool-leak: sizing test only inspects capacities — dropped)
  auto tiny = pool.Acquire(1);
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny.capacity(), 64u);  // min class
  auto mid = pool.Acquire(65);  // ANALYZER-OK(pool-leak: dropped on purpose)
  EXPECT_EQ(mid.size(), 65u);
  EXPECT_EQ(mid.capacity(), 128u);  // ceil to next power of two
  auto exact = pool.Acquire(1024);  // ANALYZER-OK(pool-leak: dropped on purpose)
  EXPECT_EQ(exact.size(), 1024u);
  EXPECT_EQ(exact.capacity(), 1024u);  // power of two stays in its class
}

TEST(BufferPoolTest, ReleaseThenAcquireHitsSameClass) {
  BufferPool pool;
  auto buffer = pool.Acquire(100);  // class capacity 128
  const float* data_ptr = buffer.data();
  pool.Release(std::move(buffer));
  EXPECT_EQ(pool.FreeBuffers(), 1u);
  // Any request whose class rounds to 128 reuses the same storage.
  auto again = pool.Acquire(128);  // ANALYZER-OK(pool-leak: dropped on purpose)
  EXPECT_EQ(again.data(), data_ptr);
  EXPECT_EQ(pool.FreeBuffers(), 0u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.returns, 1u);
}

TEST(BufferPoolTest, AcquireKeepsBufferInItsClassForever) {
  BufferPool pool;
  // A buffer acquired at the class boundary then released and re-acquired
  // at a *smaller* size must keep its class capacity (no shrink, no drift).
  auto buffer = pool.Acquire(4096);
  pool.Release(std::move(buffer));
  // ANALYZER-OK(pool-leak: dropped on purpose — class-retention test)
  auto small = pool.Acquire(3000);  // same class (4096)
  EXPECT_EQ(small.capacity(), 4096u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, ForeignBuffersAreFiledByCapacity) {
  BufferPool pool;
  std::vector<float> foreign;
  foreign.reserve(200);  // between classes 128 and 256: files under 128
  foreign.resize(10);
  pool.Release(std::move(foreign));
  EXPECT_EQ(pool.FreeBuffers(), 1u);
  // ANALYZER-OK(pool-leak: dropped on purpose — foreign-buffer reuse test)
  auto reused = pool.Acquire(128);  // fits: 200 >= 128
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_GE(reused.capacity(), 128u);
}

TEST(BufferPoolTest, TooSmallToServeAnyClassIsDiscarded) {
  BufferPool pool;
  std::vector<float> tiny(8);  // capacity < 64: cannot serve any class
  tiny.shrink_to_fit();
  pool.Release(std::move(tiny));
  EXPECT_EQ(pool.FreeBuffers(), 0u);
  EXPECT_EQ(pool.stats().discarded, 1u);
}

TEST(BufferPoolTest, MaxFreePerClassBoundsRetention) {
  BufferPool pool(/*max_free_per_class=*/2);
  std::vector<BufferPool::Buffer> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.Acquire(64));
  for (auto& buffer : held) pool.Release(std::move(buffer));
  EXPECT_EQ(pool.FreeBuffers(), 2u);
  EXPECT_EQ(pool.stats().discarded, 3u);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseStress) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::atomic<std::uint64_t> churn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(1000 + t));
      std::vector<BufferPool::Buffer> held;
      for (int i = 0; i < kRounds; ++i) {
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.Uniform(0.0, 5000.0));
        auto buffer = pool.Acquire(n);
        ASSERT_EQ(buffer.size(), n);
        buffer[0] = static_cast<float>(t);
        buffer[n - 1] = static_cast<float>(i);
        churn.fetch_add(1, std::memory_order_relaxed);
        if (i % 3 == 0 && !held.empty()) {
          pool.Release(std::move(held.back()));
          held.pop_back();
        }
        held.push_back(std::move(buffer));
        if (held.size() > 4) {
          pool.Release(std::move(held.front()));
          held.erase(held.begin());
        }
      }
      for (auto& buffer : held) pool.Release(std::move(buffer));
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, churn.load());
  EXPECT_EQ(churn.load(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
}

// ------------------------------------------- vectorized reduction kernels --

float ScalarReduce(float a, float b, ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kAvg:
      return a + b;
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kMax:
      return std::max(a, b);
    case ReduceOp::kBitAnd:
      return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) &
                                  std::bit_cast<std::uint32_t>(b));
  }
  return 0.0f;
}

class AccumulateP : public ::testing::TestWithParam<ReduceOp> {};

TEST_P(AccumulateP, MatchesScalarReferenceOnUnalignedOddSpans) {
  const ReduceOp op = GetParam();
  Rng rng(42);
  std::vector<float> acc(1003);
  std::vector<float> in(1003);
  for (auto& x : acc) x = static_cast<float>(rng.Uniform(-100.0, 100.0));
  for (auto& x : in) x = static_cast<float>(rng.Uniform(-100.0, 100.0));

  // Odd offsets and odd lengths: exercises the unrolled body *and* the
  // scalar tail at unaligned starting addresses.
  for (const std::size_t offset : {0u, 1u, 3u, 7u}) {
    for (const std::size_t len : {0u, 1u, 5u, 8u, 9u, 63u, 64u, 65u, 991u}) {
      if (offset + len > acc.size()) continue;
      std::vector<float> expected(acc.begin(), acc.end());
      for (std::size_t i = 0; i < len; ++i) {
        expected[offset + i] =
            ScalarReduce(expected[offset + i], in[offset + i], op);
      }
      std::vector<float> actual(acc.begin(), acc.end());
      collective::Accumulate(std::span<float>(actual).subspan(offset, len),
                             std::span<const float>(in).subspan(offset, len),
                             op);
      // Bitwise agreement: the vector kernel must not reassociate.
      ASSERT_EQ(std::memcmp(actual.data(), expected.data(),
                            actual.size() * sizeof(float)),
                0)
          << "offset " << offset << " len " << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, AccumulateP,
                         ::testing::Values(ReduceOp::kSum, ReduceOp::kAvg,
                                           ReduceOp::kMin, ReduceOp::kMax,
                                           ReduceOp::kBitAnd));

TEST(AccumulateTest, EmptySpansAreANoOp) {
  collective::Accumulate({}, {}, ReduceOp::kSum);  // must not crash
  std::vector<float> acc{1.0f, 2.0f};
  collective::Accumulate(std::span<float>(acc).subspan(0, 0),
                         std::span<const float>(), ReduceOp::kMax);
  EXPECT_EQ(acc[0], 1.0f);
  EXPECT_EQ(acc[1], 2.0f);
}

// ---------------------------------------------- zero-allocation steady state

TEST(ZeroAllocTest, PooledRingSteadyStatePerformsNoPayloadAllocations) {
  const int world = 4;
  const std::size_t len = 4096;
  transport::InProcTransport tr(world);
  BufferPool pool;

  auto run_iteration = [&] {
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        std::vector<float> data(len, static_cast<float>(r));
        Comm comm{&tr, r, world, /*tag_base=*/1, /*timeout_ms=*/0, &pool};
        ASSERT_TRUE(collective::RingAllReduce(comm, data, ReduceOp::kSum).ok());
      });
    }
    for (auto& t : threads) t.join();
  };

  run_iteration();  // warm the pool (all misses land here)
  run_iteration();
  // Steady-state payload allocations are pool misses: every Acquire must
  // hit a recycled buffer.
  const auto pool0 = pool.stats();
  for (int i = 0; i < 3; ++i) run_iteration();
  const auto pool1 = pool.stats();
  EXPECT_EQ(pool1.misses - pool0.misses, 0u)
      << "steady-state pooled ring must recycle every payload buffer";
  EXPECT_GT(pool1.hits - pool0.hits, 0u);
}

TEST(ZeroAllocTest, PipelinedRingSteadyStateAlsoAllocatesNothing) {
  // Depth > 1 keeps several slices in flight per step; the slice carry
  // window must still recycle every received payload into the next send —
  // zero steady-state allocations survives the pipelining.
  const int world = 4;
  const std::size_t len = 4096;
  transport::InProcTransport tr(world);
  BufferPool pool;

  auto run_iteration = [&] {
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        std::vector<float> data(len, static_cast<float>(r));
        Comm comm{&tr,   r, world, /*tag_base=*/1, /*timeout_ms=*/0,
                  &pool, /*pipeline_depth=*/4};
        ASSERT_TRUE(collective::RingAllReduce(comm, data, ReduceOp::kSum).ok());
      });
    }
    for (auto& t : threads) t.join();
  };

  run_iteration();  // warm the pool (all misses land here)
  run_iteration();
  const auto pool0 = pool.stats();
  for (int i = 0; i < 3; ++i) run_iteration();
  const auto pool1 = pool.stats();
  EXPECT_EQ(pool1.misses - pool0.misses, 0u)
      << "steady-state pipelined ring must recycle every slice buffer";
  EXPECT_GT(pool1.hits - pool0.hits, 0u);
}

// ------------------------------------------ persistent multi-channel pool --

TEST(MultiChannelWorkersTest, RepeatedCallsReuseWorkersInsteadOfSpawning) {
  const int world = 4;
  const int channels = 3;
  const std::size_t len = 1024;

  auto run_once = [&] {
    transport::InProcTransport tr(world);
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        std::vector<float> data(len, static_cast<float>(r + 1));
        Comm comm{&tr, r, world, /*tag_base=*/1};
        ASSERT_TRUE(collective::MultiChannelAllReduce(comm, data,
                                                      ReduceOp::kSum, channels)
                        .ok());
      });
    }
    for (auto& t : threads) t.join();
  };

  run_once();
  const int workers_after_first = collective::MultiChannelWorkerCount();
  // world ranks, channels-1 pool tasks each (channel 0 runs on the caller).
  EXPECT_GE(workers_after_first, world * (channels - 1));
  for (int i = 0; i < 5; ++i) run_once();
  // The pool never grows for a workload already at its peak concurrency —
  // repeated invocations reuse the same workers, no per-call spawning.
  EXPECT_EQ(collective::MultiChannelWorkerCount(), workers_after_first);
}

TEST(PipelinedStressTest, ChannelsTimesDepthInFlightUnderRepetition) {
  // num_channels x pipeline_depth slice payloads in flight per rank, many
  // iterations back to back — the tsan preset runs this to shake races in
  // the in-flight window bookkeeping and the gauge updates.
  const int world = 4;
  const int channels = 2;
  const std::size_t len = 2048;
  transport::InProcTransport tr(world);
  BufferPool pool;
  const std::vector<float> expected(
      len, static_cast<float>(world * (world + 1) / 2));
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        std::vector<float> data(len, static_cast<float>(r + 1));
        Comm comm{&tr,   r, world, /*tag_base=*/1, /*timeout_ms=*/0,
                  &pool, /*pipeline_depth=*/4};
        ASSERT_TRUE(collective::MultiChannelAllReduce(comm, data,
                                                      ReduceOp::kSum, channels)
                        .ok());
        ASSERT_EQ(std::memcmp(data.data(), expected.data(),
                              len * sizeof(float)),
                  0);
      });
    }
    for (auto& t : threads) t.join();
  }
}

// --------------------------------------------------- tag namespace layout --

TEST(TagLayoutTest, ChannelNamespacesAreDisjointAndAvoidHeartbeat) {
  // Static guarantees live in collective/tags.h; spot-check the arithmetic.
  for (int base : {collective::kSyncTag, collective::kUnitTagBase, 777}) {
    for (int c = 0; c < 64; ++c) {
      const int channel_base = collective::ChannelTagBase(base, c);
      EXPECT_NE(channel_base, collective::kHeartbeatTag);
      EXPECT_GT(channel_base, base);
      // A whole collective fits before the next channel starts.
      EXPECT_GE(collective::ChannelTagBase(base, c + 1),
                channel_base + collective::kTagsPerCollective);
    }
  }
  EXPECT_GT(collective::kChannelTagStride, collective::kTagsPerCollective);
  EXPECT_GT(collective::kUnitTagStride, collective::kTagsPerCollective);
}

}  // namespace
}  // namespace aiacc
