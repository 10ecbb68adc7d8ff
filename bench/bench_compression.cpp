// Gradient-compression bench: measures the wire-byte reduction and the
// reconstruction error of every codec on two workload shapes at world 4:
//
//   * dense_conv        — a dense, smooth gradient (every element nonzero),
//                         the shape of conv/MLP layer gradients;
//   * sparse_embedding  — an embedding-table gradient where <1% of rows were
//                         touched this step (the paper's CTR workloads).
//
// For each (workload, codec) pair the bench runs real ring all-reduces over
// InProcTransport (cast codecs ride the sliced ring, sparse codecs the
// record all-gather of CompressedAllReduce with per-rank error-feedback
// residuals) and reports measured transport bytes via TotalPayloadBytes,
// the reduction vs the raw-fp32 wire, per-all-reduce latency, and the
// relative error of the final iteration against the exact fp32 average.
//
// `--json` prints a machine-readable summary (the checked-in
// BENCH_compression.json); `--smoke` shrinks the workloads and exits
// non-zero unless fp16 cuts embedding wire bytes by >= 1.9x and top-k by
// >= 10x (wired into ctest).
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "compress/codec.h"
#include "transport/inproc.h"

namespace {

using aiacc::common::BufferPool;
using aiacc::compress::CodecKind;
using aiacc::compress::CodecSpec;

struct BenchConfig {
  int world = 4;
  std::size_t dense_elems = 1u << 18;
  std::size_t embed_elems = 1u << 20;
  int iters = 5;
};

// Deterministic per-(rank, index) gradient values, so the exact fp32
// average is computable without a reference all-reduce.
float DenseValue(int rank, std::size_t i) {
  std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u +
                    static_cast<std::uint32_t>(rank + 1) * 40503u;
  h ^= h >> 15;
  h *= 2246822519u;
  h ^= h >> 13;
  return static_cast<float>(h & 0xFFFFFFu) / 8388608.0f - 1.0f;
}

// ~0.8% of positions hot; the same positions on every rank (the touched
// rows of one minibatch), which is what makes top-k@1% lossless here.
float EmbeddingValue(int rank, std::size_t i) {
  const std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u;
  if ((h >> 8) % 125 != 0) return 0.0f;
  return DenseValue(rank, i);
}

struct CodecResult {
  CodecSpec spec;
  std::uint64_t wire_bytes = 0;
  double seconds = 0.0;
  double rel_error = 0.0;
};

/// Run `iters` all-reduces of the generated workload at every rank and
/// measure transport bytes + final-iteration error vs the exact average.
template <typename Gen>
CodecResult RunCodecPhase(const CodecSpec& spec, int world,
                          std::size_t elems, int iters, Gen gen) {
  aiacc::transport::InProcTransport tr(world);
  BufferPool pool;
  std::vector<float> rank0_result(elems);
  std::barrier<> gate(static_cast<std::ptrdiff_t>(world) + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> data(elems);
      std::vector<float> residual;
      if (aiacc::compress::UsesErrorFeedback(spec.kind)) {
        residual.assign(elems, 0.0f);
      }
      gate.arrive_and_wait();  // start line (main samples counters)
      for (int it = 0; it < iters; ++it) {
        for (std::size_t i = 0; i < elems; ++i) data[i] = gen(r, i);
        aiacc::collective::Comm comm{&tr,  r, world, /*tag_base=*/1,
                                     /*timeout_ms=*/0, &pool};
        comm.codec = spec;
        const aiacc::Status st =
            aiacc::compress::IsSparse(spec.kind)
                ? aiacc::collective::CompressedAllReduce(
                      comm, data, aiacc::collective::ReduceOp::kAvg,
                      std::span<float>(residual))
                : aiacc::collective::RingAllReduce(
                      comm, data, aiacc::collective::ReduceOp::kAvg);
        if (!st.ok()) {
          std::fprintf(stderr, "all-reduce (%s) failed: %s\n",
                       aiacc::compress::ToString(spec).c_str(),
                       st.ToString().c_str());
          std::exit(2);
        }
        gate.arrive_and_wait();  // iteration fence (keeps tags in lockstep)
      }
      if (r == 0) std::copy(data.begin(), data.end(), rank0_result.begin());
      gate.arrive_and_wait();  // finish line
    });
  }
  // Sample counters BEFORE the start gate releases the rank threads, so the
  // window covers every send of every iteration.
  const std::uint64_t wire0 = tr.TotalPayloadBytes();
  const auto t0 = std::chrono::steady_clock::now();
  gate.arrive_and_wait();
  for (int it = 0; it < iters; ++it) gate.arrive_and_wait();
  const auto t1 = std::chrono::steady_clock::now();
  gate.arrive_and_wait();
  for (auto& t : threads) t.join();

  CodecResult result;
  result.spec = spec;
  result.wire_bytes = tr.TotalPayloadBytes() - wire0;
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  // Exact average of the last iteration's inputs.
  double err2 = 0.0;
  double ref2 = 0.0;
  for (std::size_t i = 0; i < elems; ++i) {
    double sum = 0.0;
    for (int r = 0; r < world; ++r) sum += static_cast<double>(gen(r, i));
    const double exact = sum / world;
    const double d = static_cast<double>(rank0_result[i]) - exact;
    err2 += d * d;
    ref2 += exact * exact;
  }
  result.rel_error = ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0;
  return result;
}

struct WorkloadReport {
  std::string name;
  std::size_t elems = 0;
  std::vector<CodecResult> codecs;
};

void PrintJson(const BenchConfig& cfg,
               const std::vector<WorkloadReport>& workloads) {
  std::printf("{\"world\": %d, \"iters\": %d,\n \"workloads\": [\n",
              cfg.world, cfg.iters);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const WorkloadReport& wl = workloads[w];
    const double raw = static_cast<double>(wl.codecs.front().wire_bytes);
    std::printf("  {\"name\": \"%s\", \"elems\": %zu, \"codecs\": [\n",
                wl.name.c_str(), wl.elems);
    for (std::size_t c = 0; c < wl.codecs.size(); ++c) {
      const CodecResult& r = wl.codecs[c];
      std::printf("    {\"codec\": \"%s\", \"wire_bytes\": %llu, "
                  "\"reduction_vs_raw\": %.2f, \"rel_error\": %.3e, "
                  "\"all_reduce_us\": %.1f}%s\n",
                  aiacc::compress::ToString(r.spec).c_str(),
                  static_cast<unsigned long long>(r.wire_bytes),
                  r.wire_bytes > 0
                      ? raw / static_cast<double>(r.wire_bytes)
                      : 0.0,
                  r.rel_error, 1e6 * r.seconds / cfg.iters,
                  c + 1 < wl.codecs.size() ? "," : "");
    }
    std::printf("  ]}%s\n", w + 1 < workloads.size() ? "," : "");
  }
  std::printf(" ]}\n");
}

void PrintText(const BenchConfig& cfg,
               const std::vector<WorkloadReport>& workloads) {
  std::printf("compression bench: %d ranks, %d iters per codec\n", cfg.world,
              cfg.iters);
  for (const WorkloadReport& wl : workloads) {
    const double raw = static_cast<double>(wl.codecs.front().wire_bytes);
    std::printf("  %s (%zu floats):\n", wl.name.c_str(), wl.elems);
    for (const CodecResult& r : wl.codecs) {
      std::printf("    %-12s %12llu wire bytes  %6.2fx  rel_err %.3e  "
                  "%10.1f us/all-reduce\n",
                  aiacc::compress::ToString(r.spec).c_str(),
                  static_cast<unsigned long long>(r.wire_bytes),
                  r.wire_bytes > 0 ? raw / static_cast<double>(r.wire_bytes)
                                   : 0.0,
                  r.rel_error, 1e6 * r.seconds / cfg.iters);
    }
  }
}

double ReductionFor(const WorkloadReport& wl, CodecKind kind) {
  const double raw = static_cast<double>(wl.codecs.front().wire_bytes);
  for (const CodecResult& r : wl.codecs) {
    if (r.spec.kind == kind && r.wire_bytes > 0) {
      return raw / static_cast<double>(r.wire_bytes);
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      cfg.iters = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--smoke] [--iters N]\n",
                   argv[0]);
      return 1;
    }
  }
  if (smoke) {
    cfg.dense_elems = 1u << 14;
    cfg.embed_elems = 1u << 17;
    cfg.iters = 3;
  }

  const std::vector<CodecSpec> codecs = {
      CodecSpec{CodecKind::kNone}, CodecSpec{CodecKind::kFp16},
      CodecSpec{CodecKind::kBf16}, CodecSpec{CodecKind::kOneBit},
      CodecSpec{CodecKind::kTopK, 0.01f}};

  std::vector<WorkloadReport> workloads(2);
  workloads[0].name = "dense_conv";
  workloads[0].elems = cfg.dense_elems;
  workloads[1].name = "sparse_embedding";
  workloads[1].elems = cfg.embed_elems;
  for (const CodecSpec& spec : codecs) {
    workloads[0].codecs.push_back(RunCodecPhase(
        spec, cfg.world, cfg.dense_elems, cfg.iters, DenseValue));
    workloads[1].codecs.push_back(RunCodecPhase(
        spec, cfg.world, cfg.embed_elems, cfg.iters, EmbeddingValue));
  }

  if (json) {
    PrintJson(cfg, workloads);
  } else {
    PrintText(cfg, workloads);
  }

  if (smoke) {
    const double fp16_red = ReductionFor(workloads[1], CodecKind::kFp16);
    const double topk_red = ReductionFor(workloads[1], CodecKind::kTopK);
    if (fp16_red < 1.9) {
      std::fprintf(stderr,
                   "SMOKE FAILURE: fp16 embedding wire reduction %.2fx "
                   "(want >= 1.9x)\n",
                   fp16_red);
      return 1;
    }
    if (topk_red < 10.0) {
      std::fprintf(stderr,
                   "SMOKE FAILURE: top-k embedding wire reduction %.2fx "
                   "(want >= 10x)\n",
                   topk_red);
      return 1;
    }
  }
  return 0;
}
