// ReliableTransport tests: exactly-once in-order delivery through every
// fault mix the chaos layer can throw (drop/dup/reorder/corrupt/straggler,
// separately and combined), bidirectional traffic on one tag, concurrent
// senders on one channel, acks reaped by the sender, strict TryRecv,
// deadline hand-off to the upper tiers, zero steady-state buffer
// allocations, and collectives running bit-exact through chaos at every
// pipeline depth and channel count.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "collective/tags.h"
#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"

namespace aiacc::transport {
namespace {

Payload MakeBody(int i, std::size_t lanes) {
  Payload body(lanes);
  for (std::size_t j = 0; j < lanes; ++j) {
    body[j] = static_cast<float>(i) + 0.25f * static_cast<float>(j);
  }
  return body;
}

/// Send `n` bodies 0 -> 1 through Reliable(Faulty(spec)) and require the
/// receiver to observe exactly the sent stream, in order. Returns the
/// reliable layer's stats for mix-specific assertions.
ReliableStats RunStream(FaultSpec spec, int n, ReliableOptions opts = {}) {
  InProcTransport inner(2);
  FaultyTransport faulty(inner, spec);
  ReliableTransport rel(faulty, opts);
  const std::size_t lanes = 8;
  std::thread sender([&] {
    for (int i = 0; i < n; ++i) {
      rel.Send(0, 1, 3, MakeBody(i, lanes));
    }
  });
  [&]() {
    for (int i = 0; i < n; ++i) {
      auto p = rel.RecvFor(1, 0, 3, kNoTimeout);
      ASSERT_TRUE(p.ok()) << "message " << i << ": " << p.status().ToString();
      EXPECT_EQ(*p, MakeBody(i, lanes)) << "message " << i;
    }
  }();
  sender.join();
  // Nothing extra may ever surface (exactly-once).
  EXPECT_EQ(rel.TryRecv(1, 0, 3), std::nullopt);
  const ReliableStats s = rel.stats();
  EXPECT_EQ(s.delivered, static_cast<std::uint64_t>(n));
  return s;
}

TEST(ReliableTransportTest, CleanChannelIsTransparent) {
  const ReliableStats s = RunStream(FaultSpec{}, 50);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.crc_failures, 0u);
  EXPECT_EQ(s.duplicates_discarded, 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderDrops) {
  FaultSpec spec;
  spec.seed = 11;
  spec.all_links.drop_prob = 0.25;
  const ReliableStats s = RunStream(spec, 300);
  EXPECT_GT(s.retransmits, 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderDuplication) {
  FaultSpec spec;
  spec.seed = 12;
  spec.all_links.dup_prob = 0.3;
  const ReliableStats s = RunStream(spec, 300);
  EXPECT_GT(s.duplicates_discarded, 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderReordering) {
  FaultSpec spec;
  spec.seed = 13;
  spec.all_links.reorder_prob = 0.3;
  RunStream(spec, 300);
}

TEST(ReliableTransportTest, ExactlyOnceUnderCorruption) {
  FaultSpec spec;
  spec.seed = 14;
  spec.all_links.corrupt_prob = 0.2;
  const ReliableStats s = RunStream(spec, 300);
  // A flipped bit must be caught by the CRC and healed by retransmission.
  EXPECT_GT(s.crc_failures, 0u);
  EXPECT_GT(s.retransmits, 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderStraggler) {
  FaultSpec spec;
  spec.seed = 15;
  spec.straggler_rank = 0;
  spec.straggler_delay_ms = 1.0;
  RunStream(spec, 60);
}

TEST(ReliableTransportTest, ExactlyOnceUnderCombinedChaos) {
  FaultSpec spec;
  spec.seed = 16;
  spec.all_links.drop_prob = 0.1;
  spec.all_links.dup_prob = 0.1;
  spec.all_links.reorder_prob = 0.1;
  spec.all_links.corrupt_prob = 0.05;
  const ReliableStats s = RunStream(spec, 400);
  EXPECT_GT(s.retransmits, 0u);
}

// On a 2-rank ring next == prev, so both directions of a rank pair share
// one tag; the kind lane must demux each side's acks from the other side's
// data.
TEST(ReliableTransportTest, BidirectionalTrafficOnOneTag) {
  FaultSpec spec;
  spec.seed = 21;
  spec.all_links.drop_prob = 0.15;
  spec.all_links.dup_prob = 0.1;
  InProcTransport inner(2);
  FaultyTransport faulty(inner, spec);
  ReliableTransport rel(faulty);
  const int n = 150;
  auto side = [&](int me, int peer) {
    std::thread sender([&, me, peer] {
      for (int i = 0; i < n; ++i) rel.Send(me, peer, 9, MakeBody(i, 6));
    });
    for (int i = 0; i < n; ++i) {
      auto p = rel.RecvFor(me, peer, 9, kNoTimeout);
      ASSERT_TRUE(p.ok());
      EXPECT_EQ(*p, MakeBody(i, 6));
    }
    sender.join();
  };
  std::thread t0([&] { side(0, 1); });
  std::thread t1([&] { side(1, 0); });
  t0.join();
  t1.join();
}

// Sends on one channel from several threads: framing runs outside the
// lock, so frames reach the wire out of seq order even on a clean link.
// Every body must still arrive exactly once, each sender's in its order.
void RunConcurrentSenders(FaultSpec spec) {
  InProcTransport inner(2);
  FaultyTransport faulty(inner, spec);
  ReliableTransport rel(faulty);
  constexpr int kSenders = 4;
  constexpr int kPerSender = 100;
  constexpr std::size_t kLanes = 16;
  const auto body_id = [](int sender, int i) { return sender * 1000 + i; };
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&, t] {
      for (int i = 0; i < kPerSender; ++i) {
        rel.Send(0, 1, 5, MakeBody(body_id(t, i), kLanes));
      }
    });
  }
  std::vector<int> next(kSenders, 0);  // next expected i per sender
  for (int n = 0; n < kSenders * kPerSender; ++n) {
    auto p = rel.RecvFor(1, 0, 5, std::chrono::seconds(30));
    ASSERT_TRUE(p.ok()) << "message " << n << ": " << p.status().ToString();
    ASSERT_EQ(p->size(), kLanes);
    const int id = static_cast<int>((*p)[0]);
    const int t = id / 1000;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kSenders);
    EXPECT_EQ(id % 1000, next[static_cast<std::size_t>(t)])
        << "sender " << t << " out of order or duplicated";
    EXPECT_EQ(*p, MakeBody(id, kLanes));
    next[static_cast<std::size_t>(t)] = id % 1000 + 1;
  }
  for (auto& th : senders) th.join();
  for (int t = 0; t < kSenders; ++t) {
    EXPECT_EQ(next[static_cast<std::size_t>(t)], kPerSender) << "sender " << t;
  }
  EXPECT_EQ(rel.TryRecv(1, 0, 5), std::nullopt);
  EXPECT_EQ(rel.stats().delivered,
            static_cast<std::uint64_t>(kSenders * kPerSender));
}

TEST(ReliableTransportTest, ConcurrentSendersOnOneChannel) {
  RunConcurrentSenders(FaultSpec{});
  FaultSpec lossy;
  lossy.seed = 25;
  lossy.all_links.drop_prob = 0.1;
  lossy.all_links.reorder_prob = 0.2;
  RunConcurrentSenders(lossy);
}

// A sender reaps its own acks: with the daemon effectively asleep, each
// Send on a channel with a frame in flight drains the ack mailbox first.
TEST(ReliableTransportTest, SenderReapsAcksWithoutDaemon) {
  InProcTransport inner(2);
  ReliableOptions opts;
  opts.daemon_tick_ms = 60000;
  ReliableTransport rel(inner, opts);
  rel.Send(0, 1, 7, MakeBody(0, 4));
  ASSERT_TRUE(rel.RecvFor(1, 0, 7, kNoTimeout).ok());  // acks before it returns
  for (int i = 1; i <= 3; ++i) {
    const std::uint64_t before = rel.stats().acks_received;
    rel.Send(0, 1, 7, MakeBody(i, 4));
    EXPECT_EQ(rel.stats().acks_received, before + 1) << "send " << i;
    ASSERT_TRUE(rel.RecvFor(1, 0, 7, kNoTimeout).ok());
  }
}

// Reliable TryRecv never skips a gap: a dropped-but-retransmitting frame
// stalls delivery rather than letting a later frame jump the queue.
TEST(ReliableTransportTest, TryRecvStaysStrictlyOrdered) {
  FaultSpec spec;
  spec.seed = 22;
  spec.all_links.drop_prob = 0.3;
  spec.all_links.reorder_prob = 0.3;
  InProcTransport inner(2);
  FaultyTransport faulty(inner, spec);
  ReliableTransport rel(faulty);
  const int n = 100;
  for (int i = 0; i < n; ++i) rel.Send(0, 1, 4, MakeBody(i, 5));
  int got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    auto p = rel.TryRecv(1, 0, 4);
    if (!p.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    EXPECT_EQ(*p, MakeBody(got, 5)) << "message " << got;
    ++got;
  }
  EXPECT_EQ(rel.TryRecv(1, 0, 4), std::nullopt);
}

// Tier-1 gives up after the message deadline; the loss surfaces as the
// *receiver's* RecvFor deadline (the hand-off to tiers 2/3).
TEST(ReliableTransportTest, MessageDeadlineHandsOffToUpperTiers) {
  FaultSpec spec;
  spec.seed = 23;
  spec.all_links.drop_prob = 1.0;  // nothing ever arrives
  InProcTransport inner(2);
  FaultyTransport faulty(inner, spec);
  ReliableOptions opts;
  opts.rto_initial_ms = 1;
  opts.rto_max_ms = 4;
  opts.message_deadline_ms = 30;
  ReliableTransport rel(faulty, opts);
  rel.Send(0, 1, 2, MakeBody(0, 4));
  auto p = rel.RecvFor(1, 0, 2, std::chrono::milliseconds(100));
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kDeadlineExceeded);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rel.stats().delivery_failures == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(rel.stats().retransmits, 1u);
}

// Retransmit copies, wire frames, acks, and delivered bodies all cycle
// through the BufferPool: once the communication pattern's buffer classes
// are warm, a retransmitting steady state allocates nothing. (Delay faults
// rather than drops: a *dropped* frame is destroyed inside the chaos
// decorator — a test-only device that consumes buffers a real wire would
// never have owned — while delays exercise the genuine retransmit +
// duplicate-discard path with every buffer eventually returning home.)
TEST(ReliableTransportTest, ZeroSteadyStateAllocations) {
  FaultSpec spec;
  spec.seed = 24;
  spec.all_links.delay_prob = 0.3;
  spec.all_links.max_delay_ms = 15.0;  // >> rto: forces retransmits
  InProcTransport inner(2);
  FaultyTransport faulty(inner, spec);
  common::BufferPool pool;
  // Deep-prime the (single) size class the reliable path uses: when the
  // consumer thread is starved by a loaded machine, the daemon keeps
  // cloning retransmits every rto, so the transient buffer population can
  // burst well past what serial warm-up pings would populate.
  {
    std::vector<Payload> prime;
    for (int i = 0; i < 128; ++i) prime.push_back(pool.Acquire(12));
    for (auto& p : prime) pool.Release(std::move(p));
  }
  ReliableOptions opts;
  opts.pool = &pool;
  opts.rto_initial_ms = 2;
  opts.rto_max_ms = 8;
  ReliableTransport rel(faulty, opts);
  auto ping = [&](int i) {
    Payload body = pool.Acquire(8);
    for (std::size_t j = 0; j < body.size(); ++j) {
      body[j] = static_cast<float>(i + static_cast<int>(j));
    }
    rel.Send(0, 1, 6, std::move(body));
    auto p = rel.RecvFor(1, 0, 6, kNoTimeout);
    ASSERT_TRUE(p.ok());
    pool.Release(std::move(*p));
  };
  for (int i = 0; i < 200; ++i) ping(i);  // warm the classes
  const std::uint64_t misses_before = pool.stats().misses;
  for (int i = 0; i < 300; ++i) ping(i);
  EXPECT_EQ(pool.stats().misses, misses_before)
      << "steady-state retransmission allocated fresh buffers";
  EXPECT_GT(rel.stats().retransmits, 0u)
      << "delays never forced a retransmit; the assertion proved nothing";
}

// --------------------------------- collectives through the chaos stack ---

// Every collective must complete *bit-exactly* through seeded
// drop/dup/reorder/corrupt chaos, at every pipeline depth and channel
// count, without any checkpoint recovery — tier 1 alone repairs the wire.
TEST(ReliableCollectiveTest, MultiChannelAllReduceBitExactThroughChaos) {
  const int world = 3;
  const std::size_t len = 4096;
  for (const int channels : {1, 2, 4}) {
    for (const int depth : {1, 2, 4, 8}) {
      auto make_data = [&] {
        std::vector<std::vector<float>> data(world);
        Rng rng(77);
        for (auto& v : data) {
          v.resize(len);
          for (float& x : v) x = static_cast<float>(rng.Uniform(-8.0, 8.0));
        }
        return data;
      };
      auto run = [&](Transport& tr, std::vector<std::vector<float>>& data) {
        std::vector<std::thread> threads;
        for (int r = 0; r < world; ++r) {
          threads.emplace_back([&, r] {
            collective::Comm comm{&tr, r, world, collective::kSyncTag, 20000};
            comm.pipeline_depth = depth;
            const Status st = collective::MultiChannelAllReduce(
                comm, data[static_cast<std::size_t>(r)],
                collective::ReduceOp::kAvg, channels);
            EXPECT_TRUE(st.ok()) << st.ToString();
          });
        }
        for (auto& t : threads) t.join();
      };

      // Reference: clean transport, identical schedule parameters.
      auto ref = make_data();
      InProcTransport clean(world);
      run(clean, ref);

      // Chaos run: drop/dup/reorder/corrupt under the reliable layer.
      FaultSpec spec;
      spec.seed = 1000 + static_cast<std::uint64_t>(channels * 10 + depth);
      spec.all_links.drop_prob = 0.03;
      spec.all_links.dup_prob = 0.03;
      spec.all_links.reorder_prob = 0.03;
      spec.all_links.corrupt_prob = 0.01;
      auto chaotic = make_data();
      InProcTransport inner(world);
      FaultyTransport faulty(inner, spec);
      ReliableTransport rel(faulty);
      run(rel, chaotic);

      for (int r = 0; r < world; ++r) {
        ASSERT_EQ(chaotic[static_cast<std::size_t>(r)],
                  ref[static_cast<std::size_t>(r)])
            << "channels=" << channels << " depth=" << depth << " rank=" << r;
      }
    }
  }
}

}  // namespace
}  // namespace aiacc::transport
