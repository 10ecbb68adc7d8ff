// Isolated replays of a workload's message and unit shapes through the
// public collective, compress and transport functions, after the CommBench
// method: pattern x count x warmup x numiter, with a barrier before and after
// every timed round. Each replay runs on its own transport instance with no
// engine alive, so it times one layer without the others.
#include <algorithm>
#include <barrier>
#include <functional>
#include <thread>

#include "bench.h"
#include "collective/tags.h"
#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "transport/inproc.h"
#include "transport/reliable.h"

namespace perfbench {
namespace {

namespace collective = aiacc::collective;
namespace compress = aiacc::compress;
namespace transport = aiacc::transport;
using aiacc::common::BufferPool;

// A replay that loses a message fails after this instead of hanging.
constexpr std::int64_t kReplayTimeoutMs = 10000;
constexpr int kP2pTag = 7;

struct Timing {
  std::vector<double> samples;  // seconds per timed round
  bool ok = true;
};

/// Run `op(party)` on `parties` threads for warmup + numiter rounds. Party 0
/// times each round from the opening barrier to the closing one
/// (`to_barrier`), or to the end of its own `op` when only its side matters
/// (a ping-pong round ends when the pong arrives).
Timing Timed(int parties, int warmup, int numiter, bool to_barrier,
             const std::function<bool(int)>& op) {
  std::barrier<> sync(parties);
  Timing timing;
  timing.samples.reserve(static_cast<std::size_t>(numiter));
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(parties));
  for (int p = 0; p < parties; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < warmup + numiter; ++i) {
        sync.arrive_and_wait();
        const auto t0 = Clock::now();
        if (!op(p)) ok.store(false);
        auto t1 = Clock::now();
        sync.arrive_and_wait();
        if (to_barrier) t1 = Clock::now();
        if (p == 0 && i >= warmup) timing.samples.push_back(Seconds(t1 - t0));
      }
    });
  }
  for (auto& t : threads) t.join();
  timing.ok = ok.load();
  return timing;
}

std::vector<float> Values(std::size_t n, std::uint64_t seed) {
  aiacc::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

collective::Comm MakeComm(transport::Transport* t, int rank, int tag_base,
                          int depth, compress::CodecSpec codec) {
  collective::Comm comm;
  comm.transport = t;
  comm.rank = rank;
  comm.world_size = kWorld;
  comm.tag_base = tag_base;
  comm.timeout_ms = kReplayTimeoutMs;
  comm.pipeline_depth = depth;
  comm.codec = codec;
  return comm;
}

/// `rings` concurrent ring all-reduces of `floats` each (one thread per rank
/// and ring; ring s on the engine's tag channel of unit s), timed together.
Timing RingAllReduces(transport::InProcTransport& t, int rings,
                      std::size_t floats, int depth,
                      compress::CodecSpec codec, collective::ReduceOp op,
                      int tag_base, int warmup, int numiter) {
  std::vector<std::vector<float>> data;
  for (int p = 0; p < kWorld * rings; ++p) {
    data.push_back(Values(floats, static_cast<std::uint64_t>(p) + 1));
  }
  return Timed(kWorld * rings, warmup, numiter, /*to_barrier=*/true,
               [&](int p) {
                 const int rank = p % kWorld;
                 const int ring = p / kWorld;
                 const collective::Comm comm =
                     MakeComm(&t, rank, tag_base + ring * collective::kUnitTagStride,
                              depth, codec);
                 return collective::RingAllReduce(
                            comm, data[static_cast<std::size_t>(p)], op)
                     .ok();
               });
}

Timing PingPong(transport::Transport& t, std::size_t floats, int warmup,
                int numiter) {
  BufferPool& pool = BufferPool::Global();
  const auto timeout = std::chrono::milliseconds(kReplayTimeoutMs);
  return Timed(2, warmup, numiter, /*to_barrier=*/false, [&](int p) {
    if (p == 0) {
      t.Send(0, 1, kP2pTag, pool.Acquire(floats));
      auto pong = t.RecvFor(0, 1, kP2pTag, timeout);
      if (!pong.ok()) return false;
      pool.Release(std::move(*pong));
    } else {
      auto ping = t.RecvFor(1, 0, kP2pTag, timeout);
      if (!ping.ok()) return false;
      t.Send(1, 0, kP2pTag, std::move(*ping));
    }
    return true;
  });
}

Timing Stream(transport::Transport& t, std::size_t floats, int messages,
              int warmup, int numiter) {
  BufferPool& pool = BufferPool::Global();
  const auto timeout = std::chrono::milliseconds(kReplayTimeoutMs);
  return Timed(2, warmup, numiter, /*to_barrier=*/true, [&](int p) {
    for (int m = 0; m < messages; ++m) {
      if (p == 0) {
        t.Send(0, 1, kP2pTag, pool.Acquire(floats));
      } else {
        auto msg = t.RecvFor(1, 0, kP2pTag, timeout);
        if (!msg.ok()) return false;
        pool.Release(std::move(*msg));
      }
    }
    return true;
  });
}

/// Single-thread codec throughput: `reps` calls of `fn` per timed round.
Timing CodecLoop(int reps, int warmup, int numiter,
                 const std::function<void()>& fn) {
  return Timed(1, warmup, numiter, /*to_barrier=*/false, [&](int) {
    for (int r = 0; r < reps; ++r) fn();
    return true;
  });
}

double BusGbps(std::size_t floats, double seconds) {
  const double bytes = static_cast<double>(floats) * sizeof(float);
  return 2.0 * (kWorld - 1) / kWorld * bytes / seconds / 1e9;
}

double Gbps(double bytes, double seconds) { return bytes / seconds / 1e9; }

void Require(const Timing& timing, const char* what, Report& report) {
  if (!timing.ok) report.Fail(std::string("replay failed: ") + what);
}

/// Bytes one unit all-reduce puts on the wire with `codec`.
std::uint64_t UnitWireBytes(const ReplayShape& shape,
                            compress::CodecSpec codec, Report& report) {
  transport::InProcTransport t(kWorld);
  const Timing timing =
      RingAllReduces(t, 1, shape.unit_floats, shape.depth, codec,
                     collective::ReduceOp::kAvg, collective::kUnitTagBase,
                     /*warmup=*/0, /*numiter=*/1);
  Require(timing, "unit all-reduce (wire bytes)", report);
  return t.TotalPayloadBytes();
}

}  // namespace

double MeasureWireRatio(const ReplayShape& shape, Report& report) {
  const std::uint64_t raw = UnitWireBytes(shape, compress::CodecSpec{}, report);
  const std::uint64_t wire = UnitWireBytes(shape, shape.codec, report);
  return wire == 0 ? 0.0
                   : static_cast<double>(raw) / static_cast<double>(wire);
}

void RunReplays(const ReplayShape& shape, Report& report) {
  using collective::ReduceOp;
  {
    transport::InProcTransport t(kWorld);
    const Timing unit =
        RingAllReduces(t, 1, shape.unit_floats, shape.depth, shape.codec,
                       ReduceOp::kAvg, collective::kUnitTagBase, 5, 40);
    Require(unit, "unit all-reduce", report);
    const double p50 = Median(unit.samples);
    report.Add("collective.unit_allreduce_us_p50", p50 * 1e6, "us");
    report.Add("collective.unit_busbw_gbps", BusGbps(shape.unit_floats, p50),
               "GB/s");
  }
  {
    // The paper's Section III claim: `streams` rings at once move the same
    // bytes faster than one ring. One unit per stream, at most one
    // iteration's gradients.
    const std::size_t per_ring =
        std::min(shape.unit_floats * static_cast<std::size_t>(shape.streams),
                 shape.iteration_floats) /
        static_cast<std::size_t>(shape.streams);
    const std::size_t total = per_ring * static_cast<std::size_t>(shape.streams);
    transport::InProcTransport t1(kWorld);
    const Timing many =
        RingAllReduces(t1, shape.streams, per_ring, shape.depth, shape.codec,
                       ReduceOp::kAvg, collective::kUnitTagBase, 3, 20);
    transport::InProcTransport t2(kWorld);
    const Timing one =
        RingAllReduces(t2, 1, total, shape.depth, shape.codec, ReduceOp::kAvg,
                       collective::kUnitTagBase, 3, 20);
    Require(many, "concurrent rings", report);
    Require(one, "single ring", report);
    report.Add("collective.concurrent_busbw_gbps",
               BusGbps(total, Median(many.samples)), "GB/s");
    report.Add("collective.single_busbw_gbps",
               BusGbps(total, Median(one.samples)), "GB/s");
  }
  {
    transport::InProcTransport t(kWorld);
    const Timing sync =
        RingAllReduces(t, 1, shape.sync_words, 1, compress::CodecSpec{},
                       ReduceOp::kBitAnd, collective::kSyncTag, 20, 200);
    Require(sync, "sync all-reduce", report);
    report.Add("collective.sync_allreduce_us_p50", Median(sync.samples) * 1e6,
               "us");
  }
  {
    const std::size_t n = shape.unit_floats;
    const std::vector<float> src = Values(n, 99);
    std::vector<float> wire(compress::CastWireFloats(n));
    std::vector<float> back(n);
    // Enough calls per round that a round lasts about a millisecond.
    const int reps = static_cast<int>(std::max<std::size_t>(1, (1u << 20) / n));
    const double bytes = static_cast<double>(n) * sizeof(float) * reps;
    const Timing enc = CodecLoop(reps, 3, 30, [&] {
      compress::CastEncode(compress::CodecKind::kFp16, src, wire);
    });
    const Timing dec = CodecLoop(reps, 3, 30, [&] {
      compress::CastDecode(compress::CodecKind::kFp16, wire, back, n);
    });
    report.Add("compress.fp16_encode_gbps", Gbps(bytes, Median(enc.samples)),
               "GB/s");
    report.Add("compress.fp16_decode_gbps", Gbps(bytes, Median(dec.samples)),
               "GB/s");
  }
  {
    // Messages of the ring's slice size (a unit's chunk split by the
    // depth), 4 MiB of them per timed round.
    const std::size_t slice = std::max<std::size_t>(
        1, shape.unit_floats / (kWorld * static_cast<std::size_t>(shape.depth)));
    const int messages = static_cast<int>(
        std::max<std::size_t>(4, (std::size_t{1} << 20) / slice));
    const double stream_bytes =
        static_cast<double>(slice) * sizeof(float) * messages;
    {
      transport::InProcTransport t(2);
      const Timing pp = PingPong(t, shape.sync_words, 50, 1000);
      const Timing st = Stream(t, slice, messages, 2, 10);
      Require(pp, "inproc ping-pong", report);
      Require(st, "inproc stream", report);
      report.Add("transport.inproc.pingpong_us_p50", Median(pp.samples) * 1e6,
                 "us");
      report.Add("transport.inproc.stream_gbps",
                 Gbps(stream_bytes, Median(st.samples)), "GB/s");
    }
    {
      transport::InProcTransport inner(2);
      transport::ReliableTransport t(inner);
      const Timing pp = PingPong(t, shape.sync_words, 50, 1000);
      const Timing st = Stream(t, slice, messages, 2, 10);
      Require(pp, "reliable ping-pong", report);
      Require(st, "reliable stream", report);
      report.Add("transport.reliable.pingpong_us_p50",
                 Median(pp.samples) * 1e6, "us");
      report.Add("transport.reliable.stream_gbps",
                 Gbps(stream_bytes, Median(st.samples)), "GB/s");
    }
  }
}

}  // namespace perfbench
