// DAG-scheduler suite (ctest label "scheduler"): ready-set dispatch order,
// aging/starvation-freedom, cooperative preemption mid-bulk-transfer, the
// bit-exactness matrix across priority x streams x depth x codec, the
// zero-allocation steady state of the scheduler hot path, and the
// optimizer/comm-overlap exactness guarantee (engine-applied StepTensor ==
// barriered Step, bitwise).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "collective/threaded.h"
#include "core/optimizer.h"
#include "core/scheduler.h"
#include "core/threaded_engine.h"
#include "transport/inproc.h"

// Allocation counter for the zero-allocation steady-state test: every path
// through global operator new bumps it.
static std::atomic<std::uint64_t> g_allocations{0};

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

namespace aiacc::core {
namespace {

AllReduceUnit MakeUnit(int gradient_id, std::size_t bytes = 1024) {
  AllReduceUnit unit;
  unit.unit_id = static_cast<std::uint64_t>(gradient_id);
  unit.segments.push_back(UnitSegment{gradient_id, 0, bytes});
  unit.priority = gradient_id;
  return unit;
}

// ------------------------------------------------------- dispatch order --

TEST(SchedulerDispatchTest, PriorityStreamPopsMostUrgentFirst) {
  ReadySetScheduler sched(SchedulerPolicy{0.5f, 1000, 8});  // cutoff = 4
  sched.Push(MakeUnit(6));
  sched.Push(MakeUnit(5));
  sched.Push(MakeUnit(2));

  auto first = sched.PopFor(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority, 2);  // most urgent, despite being pushed last
  EXPECT_TRUE(sched.last_pop().urgent);
  EXPECT_EQ(sched.stats().priority_pops, 1u);

  // With the urgent class drained, bulk dispatches strictly FIFO — push
  // order, NOT priority order (6 before 5). Priority ordering is confined
  // to the urgent class to keep bulk dispatch rank-consistent.
  auto second = sched.PopFor(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->priority, 6);
  auto third = sched.PopFor(1);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->priority, 5);
  EXPECT_EQ(sched.stats().pops, 3u);
}

TEST(SchedulerDispatchTest, StreamZeroAlwaysPopsPushOrder) {
  // Stream 0 is the deadlock-freedom anchor: strictly FIFO even when a far
  // more urgent unit is queued.
  ReadySetScheduler sched(SchedulerPolicy{0.5f, 1000, 8});
  sched.Push(MakeUnit(7));
  sched.Push(MakeUnit(0));
  auto first = sched.PopFor(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority, 7);
  auto second = sched.PopFor(0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->priority, 0);
}

TEST(SchedulerDispatchTest, DisabledPolicyIsFifoOnEveryStream) {
  // urgent_fraction = 0 is the scheduler-off A/B arm: pure FIFO, no
  // priority accounting.
  ReadySetScheduler sched(SchedulerPolicy{0.0f, 50, 8});
  sched.Push(MakeUnit(7));
  sched.Push(MakeUnit(0));
  auto first = sched.PopFor(3);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority, 7);
  EXPECT_EQ(sched.stats().priority_pops, 0u);
  EXPECT_FALSE(sched.UrgentWaiting(100));
}

TEST(SchedulerDispatchTest, DerivesPriorityFromSegmentsWhenUnstamped) {
  ReadySetScheduler sched(SchedulerPolicy{0.5f, 1000, 8});
  AllReduceUnit unit;
  unit.segments.push_back(UnitSegment{5, 0, 64});
  unit.segments.push_back(UnitSegment{3, 0, 64});
  unit.priority = -1;  // unstamped
  sched.Push(std::move(unit));
  auto popped = sched.PopFor(1);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(sched.last_pop().priority, 3);
}

TEST(SchedulerDispatchTest, InversionCountedWhenUrgentPopsAfterBypass) {
  ReadySetScheduler sched(SchedulerPolicy{0.5f, 1000, 8});  // cutoff = 4
  sched.Push(MakeUnit(6));  // seq 0, bulk
  sched.Push(MakeUnit(1));  // seq 1, urgent
  // Stream 0 pops FIFO -> the bulk unit overtakes the waiting urgent one.
  auto bulk = sched.PopFor(0);
  ASSERT_TRUE(bulk.has_value());
  EXPECT_EQ(bulk->priority, 6);
  auto urgent = sched.PopFor(0);
  ASSERT_TRUE(urgent.has_value());
  EXPECT_EQ(urgent->priority, 1);
  EXPECT_EQ(sched.last_pop().bypassed, 1u);
  EXPECT_EQ(sched.stats().inversions, 1u);
}

TEST(SchedulerDispatchTest, UrgentWaitingHintTracksQueueContents) {
  ReadySetScheduler sched(SchedulerPolicy{0.25f, 1000, 16});  // cutoff = 4
  EXPECT_FALSE(sched.UrgentWaiting(100));
  sched.Push(MakeUnit(9));  // non-urgent: hint stays clear
  EXPECT_FALSE(sched.UrgentWaiting(100));
  sched.Push(MakeUnit(2));  // urgent
  EXPECT_TRUE(sched.UrgentWaiting(9));
  EXPECT_FALSE(sched.UrgentWaiting(2));  // not *strictly* more urgent
  EXPECT_FALSE(sched.UrgentWaiting(0));
  (void)sched.PopFor(1);  // takes the urgent unit
  EXPECT_FALSE(sched.UrgentWaiting(9));
  sched.Shutdown();
}

// --------------------------------------------------- aging & starvation --

TEST(SchedulerAgingTest, AgedBulkOutranksFreshUrgent) {
  ReadySetScheduler sched(SchedulerPolicy{0.5f, /*aging_ms=*/1, 8});
  sched.Push(MakeUnit(7));  // bulk
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sched.Push(MakeUnit(0));  // urgent but fresh
  auto first = sched.PopFor(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->priority, 7);  // age beats priority on streams >= 1
  EXPECT_GE(sched.stats().aged_pops, 1u);
}

TEST(SchedulerAgingTest, BulkNeverStarvesUnderUrgentFlood) {
  // A continuous stream of urgent units must not starve the first-pushed
  // bulk unit: stream 0's FIFO rule (and aging on stream 1) guarantee it
  // drains. Consumers mimic the engine's comm streams.
  constexpr int kUrgent = 200;
  ReadySetScheduler sched(SchedulerPolicy{0.5f, /*aging_ms=*/10, 1000});
  std::atomic<bool> bulk_popped{false};
  std::atomic<int> total_popped{0};

  std::vector<std::thread> consumers;
  for (int stream = 0; stream < 2; ++stream) {
    consumers.emplace_back([&, stream] {
      while (auto unit = sched.PopFor(stream)) {
        if (unit->priority == 999) bulk_popped.store(true);
        total_popped.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  sched.Push(MakeUnit(999));  // the bulk unit (non-urgent, pushed first)
  for (int i = 0; i < kUrgent; ++i) {
    sched.Push(MakeUnit(i % 100));  // all urgent (cutoff = 500)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Drain: PopFor after Shutdown still empties the queue.
  sched.Shutdown();
  for (auto& t : consumers) t.join();
  EXPECT_TRUE(bulk_popped.load());
  EXPECT_EQ(total_popped.load(), kUrgent + 1);
}

TEST(SchedulerLifecycleTest, ShutdownDrainsThenReturnsNullopt) {
  ReadySetScheduler sched(SchedulerPolicy{0.5f, 50, 8});
  sched.Push(MakeUnit(3));
  sched.Push(MakeUnit(1));
  sched.Shutdown();
  EXPECT_TRUE(sched.PopFor(1).has_value());
  EXPECT_TRUE(sched.PopFor(1).has_value());
  EXPECT_FALSE(sched.PopFor(1).has_value());
  sched.Push(MakeUnit(2));  // no-op after shutdown
  EXPECT_EQ(sched.Size(), 0u);
}

// ------------------------------------------------ zero-alloc steady state --

TEST(SchedulerHotPathTest, SteadyStatePushPopPerformsNoAllocations) {
  ReadySetScheduler sched(SchedulerPolicy{0.5f, 50, 8});
  // Warm up: first pushes may grow the entries vector / segment storage.
  AllReduceUnit unit = MakeUnit(2);
  for (int i = 0; i < 16; ++i) {
    sched.Push(std::move(unit));
    auto popped = sched.PopFor(1);
    ASSERT_TRUE(popped.has_value());
    unit = std::move(*popped);
  }
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    sched.Push(std::move(unit));
    auto popped = sched.PopFor(i % 4);
    ASSERT_TRUE(popped.has_value());
    unit = std::move(*popped);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "scheduler steady state must not allocate";
}

// -------------------------------------------- preemption mid-bulk-transfer --

TEST(PreemptionTest, SliceYieldHookFiresDuringPipelinedRing) {
  // The cooperative-preemption hook must be invoked between pipeline
  // slices of an in-flight collective — that is the preemption granularity
  // the engine relies on to pause bulk transfers.
  constexpr int kWorld = 2;
  transport::InProcTransport tr(kWorld);
  std::atomic<int> yields{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> data(1u << 14, static_cast<float>(r + 1));
      collective::Comm comm;
      comm.transport = &tr;
      comm.rank = r;
      comm.world_size = kWorld;
      comm.tag_base = 1;
      comm.pipeline_depth = 4;
      comm.slice_yield = [](void* ctx) {
        static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
      };
      comm.slice_yield_ctx = &yields;
      ASSERT_TRUE(collective::RingAllReduce(comm, data,
                                            collective::ReduceOp::kSum)
                      .ok());
      // The transfer itself must be unaffected by the yields.
      for (float v : data) ASSERT_FLOAT_EQ(v, 3.0f);
    });
  }
  for (auto& t : threads) t.join();
  // depth 4, two phases, world-1 steps each: many slice boundaries per rank.
  EXPECT_GE(yields.load(), 2 * kWorld);
}

// --------------------------------------------------- engine bit-exactness --

/// Run a full engine workload (staggered backward, layer-wise forward
/// consumption, engine-applied SGD) and return rank 0's final parameters.
std::vector<std::vector<float>> RunEngine(const CommConfig& config,
                                          bool bind_optimizer = true,
                                          int iters = 3) {
  constexpr int kWorld = 4;
  constexpr std::size_t kTensors = 8;
  constexpr std::size_t kElems = 2048;
  std::vector<std::vector<float>> result;
  std::atomic<bool> failed{false};
  // Bound optimizers must outlive the engine: its MPI-process loop calls
  // BeginIteration for the next iteration as soon as one closes.
  std::vector<SgdOptimizer> optimizers(kWorld, SgdOptimizer(0.9));
  {
    ThreadedAiaccEngine engine(kWorld, config);
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        auto& worker = engine.worker(r);
        SgdOptimizer& sgd = optimizers[static_cast<std::size_t>(r)];
        std::vector<std::vector<float>> grads(kTensors);
        std::vector<std::vector<float>> params(kTensors);
        for (std::size_t t = 0; t < kTensors; ++t) {
          grads[t].resize(kElems);
          params[t].assign(kElems, 1.0f);
          char name[32];
          std::snprintf(name, sizeof(name), "g%02zu", t);
          if (!worker.Register(name, grads[t]).ok()) {
            failed.store(true);
            return;
          }
          if (bind_optimizer) worker.BindParameter(name, params[t]);
        }
        if (bind_optimizer) worker.BindOptimizer(&sgd, 0.05);
        worker.Finalize();
        for (int it = 0; it < iters; ++it) {
          for (std::size_t t = kTensors; t-- > 0;) {  // backward order
            for (std::size_t i = 0; i < kElems; ++i) {
              grads[t][i] = 0.25f * static_cast<float>(r + 1) +
                            0.5f * static_cast<float>((t + i +
                                                       static_cast<std::size_t>(
                                                           it)) %
                                                      5);
            }
            char name[32];
            std::snprintf(name, sizeof(name), "g%02zu", t);
            worker.Push(name);
          }
          worker.FlushIteration();
          for (std::size_t t = 0; t < kTensors; ++t) {  // forward order
            char name[32];
            std::snprintf(name, sizeof(name), "g%02zu", t);
            if (!worker.WaitGradient(name).ok()) {
              failed.store(true);
              return;
            }
          }
          if (!worker.WaitIteration().ok()) {
            failed.store(true);
            return;
          }
          if (!bind_optimizer) {
            // Barriered reference: classic Step after the iteration.
            std::vector<std::span<float>> p(params.begin(), params.end());
            std::vector<std::span<const float>> g(grads.begin(), grads.end());
            sgd.Step(p, g, 0.05);
          }
        }
        if (r == 0) result = params;
      });
    }
    for (auto& t : threads) t.join();
    engine.Shutdown();
  }
  EXPECT_FALSE(failed.load());
  return result;
}

bool BitIdentical(const std::vector<std::vector<float>>& a,
                  const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(SchedulerExactnessTest, EveryPriorityConfigIsBitIdentical) {
  // The matrix the scheduler must not perturb: for each (streams, depth,
  // codec) point, priority dispatch on (both fractions) must reproduce the
  // FIFO arm's parameters bit-for-bit — the scheduler reorders dispatch,
  // never bytes.
  for (int streams : {1, 3}) {
    for (int depth : {1, 4}) {
      for (compress::CodecKind codec :
           {compress::CodecKind::kNone, compress::CodecKind::kFp16}) {
        CommConfig config;
        config.num_streams = streams;
        config.granularity_bytes = 8192;  // several units per iteration
        config.pipeline_depth = depth;
        config.codec.kind = codec;
        config.priority_urgent_fraction = 0.0f;
        const auto fifo = RunEngine(config);
        ASSERT_FALSE(fifo.empty());
        for (float fraction : {0.25f, 0.5f}) {
          config.priority_urgent_fraction = fraction;
          const auto sched = RunEngine(config);
          EXPECT_TRUE(BitIdentical(fifo, sched))
              << "streams=" << streams << " depth=" << depth
              << " codec=" << static_cast<int>(codec)
              << " urgent=" << fraction;
        }
      }
    }
  }
}

TEST(SchedulerExactnessTest, OverlappedOptimizerMatchesBarrieredStep) {
  // Optimizer/comm overlap (engine-applied StepTensor as collectives land)
  // must be bitwise identical to the classic barriered Step-after-wait.
  CommConfig config;
  config.num_streams = 3;
  config.granularity_bytes = 8192;
  config.priority_urgent_fraction = 0.25f;
  const auto overlapped = RunEngine(config, /*bind_optimizer=*/true);
  const auto barriered = RunEngine(config, /*bind_optimizer=*/false);
  ASSERT_FALSE(overlapped.empty());
  EXPECT_TRUE(BitIdentical(overlapped, barriered));
}

TEST(SchedulerExactnessTest, WaitGradientUnblocksAndDeliversAverage) {
  // WaitGradient on a single-gradient workload: the averaged value is
  // visible as soon as the wait returns, before WaitIteration.
  constexpr int kWorld = 2;
  CommConfig config;
  config.num_streams = 2;
  std::atomic<bool> failed{false};
  ThreadedAiaccEngine engine(kWorld, config);
  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      std::vector<float> grad(512, static_cast<float>(r == 0 ? 2 : 4));
      if (!worker.Register("g", grad).ok()) {
        failed.store(true);
        return;
      }
      worker.Finalize();
      worker.Push("g");
      worker.FlushIteration();
      if (!worker.WaitGradient("g").ok()) {
        failed.store(true);
        return;
      }
      for (float v : grad) {
        if (v != 3.0f) {
          failed.store(true);
          return;
        }
      }
      if (!worker.WaitIteration().ok()) failed.store(true);
    });
  }
  for (auto& t : threads) t.join();
  engine.Shutdown();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace aiacc::core
