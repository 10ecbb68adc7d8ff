// Fig. 10: training throughput of PyTorch NLP models (Transformer,
// BERT-Large) across engines and GPU counts. NLP models are larger, so
// communication dominates earlier and AIACC's advantage is bigger than on
// the CV models.
//
// On top of the analytic figure, this bench drives a REAL
// ThreadedAiaccEngine scheduler A/B on scaled-down BERT-Large and GPT-2-XL
// gradient sets: the same layer-wise workload runs once with FIFO dispatch
// (priority_urgent_fraction = 0, the pre-scheduler engine) and once with
// priority dispatch on, and reports per-iteration wall time for both arms.
// Each rank produces gradients back-to-front (backward order) and then
// consumes them front-to-back via Worker::WaitGradient with a fixed
// per-layer forward compute — the paper's layer-wise consumption pattern,
// where FIFO completion order (back-to-front) serializes the next forward
// behind the whole communication tail and priority dispatch lets the front
// layers unblock early. Per-layer compute is simulated with sleeps, which
// models the accelerator-side compute of real training: the GPU is busy
// while the host core stays free to run communication, which is exactly
// the overlap the scheduler exploits (and the only honest simulation on a
// single-core CI box, where spinning would serialize compute against comm
// and make overlap physically impossible). An SgdOptimizer is bound for
// optimizer/comm overlap, so the A/B also covers engine-applied parameter
// updates.
//
// `--json` prints a machine-readable scheduler_ab document (consumed by
// tools/bench_compare.py against the checked-in BENCH_scheduler.json —
// speedups are machine-stable ratios, absolute ms are not). `--smoke`
// shrinks the workload, verifies the two arms produce bit-identical
// parameters (dispatch order must not change results), and exits non-zero
// unless scheduler-on beats FIFO within 3 attempts (wired into ctest with
// label `scheduler`). Quote numbers from the `release-bench` preset.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>

#include "bench_util.h"
#include "core/optimizer.h"
#include "core/threaded_engine.h"
#include "dnn/zoo.h"

using namespace aiacc;
using namespace aiacc::bench;

namespace {

struct AbConfig {
  int world = 4;
  int streams = 4;
  int iters = 8;
  int warmup = 2;
  std::size_t grad_cap = 64;          // gradients kept per model (sampled)
  std::size_t target_total_elems = 1u << 21;  // 8 MiB of grads per rank
  std::size_t granularity = 64u << 10;
  int fwd_us_per_layer = 1000;        // forward compute per consumed layer
  // Backward compute per produced layer. This stagger is what makes the
  // A/B honest: gradients must become ready back-to-front across several
  // sync rounds (as a real backward pass produces them), so the protocol
  // pushes back-layer units first and the front units the next forward
  // needs arrive behind a queue of bulk — the priority inversion FIFO
  // suffers and the scheduler removes. With instantaneous production one
  // round agrees everything and packs in id order, and both arms dispatch
  // identically.
  int bwd_us_per_layer = 60;
};

/// A model scaled to bench size: up to `grad_cap` gradients sampled evenly
/// across the forward order (so the front/back structure survives), each
/// tensor shrunk proportionally to its real parameter count.
struct ScaledModel {
  std::string name;
  std::vector<std::string> grad_names;  // forward order; names sort likewise
  std::vector<std::size_t> elems;
};

ScaledModel ScaleModel(const dnn::ModelDescriptor& model,
                       const AbConfig& cfg) {
  ScaledModel out;
  out.name = model.name();
  const auto& grads = model.gradients();
  const std::size_t n = grads.size();
  const std::size_t keep = std::min(cfg.grad_cap, n);
  // Scale against the SAMPLED tensors' parameter count, not the full
  // model's — we only register `keep` of the model's gradients, and the
  // bench's comm volume (hence its backlog, hence the A/B's signal) must
  // actually hit target_total_elems.
  std::vector<std::size_t> sampled_raw;
  sampled_raw.reserve(keep);
  double sampled_total = 0.0;
  for (std::size_t k = 0; k < keep; ++k) {
    const std::size_t src = k * n / keep;  // even sample, order-preserving
    sampled_raw.push_back(grads[src].NumElements());
    sampled_total += static_cast<double>(sampled_raw.back());
  }
  const double scale =
      sampled_total / static_cast<double>(cfg.target_total_elems);
  // Clamp each tensor to [mean/2, 2*mean]: NLP models mix giant embeddings
  // with tiny LayerNorms, and unclamped proportional scaling collapses the
  // traffic into one gradient's units (a single priority — nothing for the
  // scheduler to order) with everything else at the floor. A front-loaded
  // giant (GPT-2's wte) also gates the whole forward chain behind its own
  // transfer, hiding the ordering win the A/B exists to measure.
  const double mean = static_cast<double>(cfg.target_total_elems) /
                      static_cast<double>(keep);
  for (std::size_t k = 0; k < keep; ++k) {
    const auto raw = static_cast<double>(sampled_raw[k]);
    const auto elems = static_cast<std::size_t>(std::clamp(
        raw / std::max(1e-9, scale), std::max(256.0, mean / 2.0),
        2.0 * mean));
    char name[32];
    std::snprintf(name, sizeof(name), "g%04zu", k);
    out.grad_names.emplace_back(name);
    out.elems.push_back(elems);
  }
  return out;
}

/// Simulated accelerator-side compute: sleep, don't spin. In real training
/// the forward/backward kernels run on the GPU while the host core drives
/// communication; a sleeping thread models exactly that (core free for the
/// comm streams). Spinning would be wrong twice over: it steals the core
/// from the rings it is supposed to overlap with, and on a single-core CI
/// box it makes compute/comm overlap physically impossible, reducing the
/// A/B to noise.
void ComputeUs(int us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

struct ArmResult {
  double iter_ms = 0.0;  // mean steady-state iteration, rank 0
  core::SchedulerStats sched;
  std::vector<std::vector<float>> params;  // rank 0's final parameters
  bool ok = false;
};

/// One A/B arm: the full layer-wise workload under `urgent_fraction`.
/// Identical inputs per iteration across arms, so final parameters must be
/// bit-identical regardless of dispatch policy.
ArmResult RunArm(const ScaledModel& model, float urgent_fraction,
                 const AbConfig& cfg) {
  core::CommConfig config;
  config.num_streams = cfg.streams;
  config.granularity_bytes = cfg.granularity;  // several units per iteration
  config.pipeline_depth = 2;
  config.priority_urgent_fraction = urgent_fraction;
  // Aging must comfortably exceed the iteration's comm backlog or every
  // entry crosses the threshold and aged-first dispatch (oldest sequence)
  // quietly degenerates streams >= 1 back to FIFO.
  config.priority_aging_ms = 1000;

  const std::size_t n = model.grad_names.size();
  ArmResult result;
  std::vector<double> iter_seconds;
  std::atomic<bool> failed{false};
  // Bound optimizers must outlive the engine: its MPI-process loop calls
  // BeginIteration for the next iteration as soon as one closes.
  std::vector<core::SgdOptimizer> optimizers(
      static_cast<std::size_t>(cfg.world),
      core::SgdOptimizer(/*momentum=*/0.9));
  {
    core::ThreadedAiaccEngine engine(cfg.world, config);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg.world));
    for (int r = 0; r < cfg.world; ++r) {
      threads.emplace_back([&, r] {
        auto& worker = engine.worker(r);
        core::SgdOptimizer& sgd = optimizers[static_cast<std::size_t>(r)];
        std::vector<std::vector<float>> grads(n);
        std::vector<std::vector<float>> params(n);
        for (std::size_t g = 0; g < n; ++g) {
          grads[g].resize(model.elems[g]);
          params[g].assign(model.elems[g], 1.0f);
          if (!worker.Register(model.grad_names[g], grads[g]).ok()) {
            failed.store(true);
            return;
          }
          worker.BindParameter(model.grad_names[g], params[g]);
        }
        worker.BindOptimizer(&sgd, /*lr=*/0.01);
        worker.Finalize();
        for (int it = 0; it < cfg.warmup + cfg.iters && !failed.load();
             ++it) {
          const auto t0 = std::chrono::steady_clock::now();
          // Backward: gradients become ready back-to-front, staggered by
          // per-layer compute. Deterministic per-iteration values so both
          // arms reduce identical bytes.
          for (std::size_t b = n; b-- > 0;) {
            ComputeUs(cfg.bwd_us_per_layer);
            auto& grad = grads[b];
            for (std::size_t i = 0; i < grad.size(); ++i) {
              grad[i] = 0.001f * static_cast<float>(r + 1) +
                        0.01f * static_cast<float>((b + i +
                                                    static_cast<std::size_t>(
                                                        it)) %
                                                   13);
            }
            worker.Push(model.grad_names[b]);
          }
          worker.FlushIteration();
          // Next forward: consume front-to-back; each layer's compute can
          // only start once its (averaged, stepped) parameter is ready.
          for (std::size_t g = 0; g < n; ++g) {
            if (!worker.WaitGradient(model.grad_names[g]).ok()) {
              failed.store(true);
              return;
            }
            ComputeUs(cfg.fwd_us_per_layer);
          }
          if (!worker.WaitIteration().ok()) {
            failed.store(true);
            return;
          }
          if (r == 0 && it >= cfg.warmup) {
            iter_seconds.push_back(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
          }
        }
        if (r == 0) {
          result.sched = worker.scheduler_stats();
          result.params = params;
        }
      });
    }
    for (auto& t : threads) t.join();
    engine.Shutdown();
  }
  if (failed.load() || iter_seconds.empty()) return result;
  // Median, not mean: on a shared/oversubscribed box a single descheduled
  // iteration would otherwise dominate the arm's number.
  std::sort(iter_seconds.begin(), iter_seconds.end());
  result.iter_ms = 1e3 * iter_seconds[iter_seconds.size() / 2];
  result.ok = true;
  return result;
}

struct AbRow {
  std::string model;
  std::size_t num_gradients = 0;
  double fifo_ms = 0.0;
  double sched_ms = 0.0;
  double speedup = 0.0;
  std::uint64_t pops = 0;
  std::uint64_t priority_pops = 0;
  std::uint64_t aged_pops = 0;
  std::uint64_t inversions = 0;
  bool bit_identical = false;
};

bool SameParams(const std::vector<std::vector<float>>& a,
                const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// FIFO vs priority-dispatch A/B for one model; retries the timing (never
/// the bit-exactness) up to `attempts` times — wall-clock on a loaded CI
/// box is noisy, results are not.
AbRow RunAb(const dnn::ModelDescriptor& model, const AbConfig& cfg,
            int attempts) {
  const ScaledModel scaled = ScaleModel(model, cfg);
  AbRow row;
  row.model = model.name();
  row.num_gradients = scaled.grad_names.size();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // FIFO vs FULL forward-order dispatch (urgent_fraction 1.0: the whole
    // id space is the urgent class). Partial fractions only reorder the
    // first layers and leave the rest serialized behind the reversed bulk
    // tail — the overlap win scales with how much of the forward chain the
    // scheduler can feed in consumption order.
    const ArmResult fifo = RunArm(scaled, 0.0f, cfg);
    const ArmResult sched = RunArm(scaled, 1.0f, cfg);
    if (!fifo.ok || !sched.ok) continue;
    row.fifo_ms = fifo.iter_ms;
    row.sched_ms = sched.iter_ms;
    row.speedup = sched.iter_ms > 0 ? fifo.iter_ms / sched.iter_ms : 0.0;
    row.pops = sched.sched.pops;
    row.priority_pops = sched.sched.priority_pops;
    row.aged_pops = sched.sched.aged_pops;
    row.inversions = sched.sched.inversions;
    row.bit_identical = SameParams(fifo.params, sched.params);
    if (!row.bit_identical) return row;  // never retry a results mismatch
    if (row.speedup >= 1.0) return row;
  }
  return row;
}

void PrintAnalyticFigure() {
  PrintHeader("Fig. 10 — PyTorch NLP model throughput (sequences/s)",
              "Paper Fig. 10",
              "same ordering as Fig. 9 with larger AIACC gaps (bigger "
              "gradients); BytePS collapses on BERT-Large");

  struct Workload {
    const char* model;
    int batch;
  };
  // Sequences per GPU; chosen to nearly fill V100 memory as in §VII-D.
  const Workload workloads[] = {{"transformer", 32}, {"bert-large", 8}};
  const std::vector<int> gpu_counts = {1, 8, 16, 32, 64, 128, 256};

  for (const Workload& w : workloads) {
    std::printf("\n-- %s (batch %d seq/GPU) --\n", w.model, w.batch);
    TablePrinter table({"GPUs", "AIACC", "Horovod", "BytePS", "PyTorch-DDP",
                        "AIACC/Horovod"});
    for (int gpus : gpu_counts) {
      const double aiacc =
          Throughput(w.model, gpus, trainer::EngineKind::kAiacc, w.batch);
      const double horovod =
          Throughput(w.model, gpus, trainer::EngineKind::kHorovod, w.batch);
      const double byteps =
          Throughput(w.model, gpus, trainer::EngineKind::kByteps, w.batch);
      const double ddp =
          Throughput(w.model, gpus, trainer::EngineKind::kPytorchDdp, w.batch);
      table.AddRow({std::to_string(gpus), FormatDouble(aiacc, 1),
                    FormatDouble(horovod, 1), FormatDouble(byteps, 1),
                    FormatDouble(ddp, 1), FormatDouble(aiacc / horovod, 2)});
    }
    table.Print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  AbConfig cfg;
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
    // 4 streams: one FIFO anchor + three priority streams. The overlap win
    // scales as (streams-1)/streams — the FIFO stream delivers its share
    // of the units in reverse order, gating that tail of the forward.
    cfg.streams = 4;
    cfg.iters = 3;
    cfg.warmup = 1;
    cfg.grad_cap = 24;
    // Units must be heavy enough that the collectives — not the readiness
    // sync rounds — pace the iteration, or the ready set never holds more
    // than one unit and both arms dispatch identically (the A/B measures
    // pure noise). And the forward chain must be a large fraction of the
    // iteration — the scheduler's entire win is overlapping that chain
    // with the comm tail, so fwd_total / comm_total bounds the measurable
    // speedup. The backward stagger must exceed the sync-round time or one
    // round agrees every gradient and pushes the units in id order —
    // indistinguishable from priority dispatch.
    cfg.target_total_elems = 1u << 20;
    cfg.granularity = 64u << 10;
    cfg.fwd_us_per_layer = 2000;
    cfg.bwd_us_per_layer = 100;
  }
  if (!json && !smoke) PrintAnalyticFigure();

  const std::vector<dnn::ModelDescriptor> models = {dnn::MakeBertLarge(),
                                                    dnn::MakeGpt2Xl()};
  std::vector<AbRow> rows;
  for (const auto& m : models) rows.push_back(RunAb(m, cfg, /*attempts=*/3));

  if (json) {
    std::printf("{\"world\": %d, \"streams\": %d, \"iters\": %d,\n"
                " \"scheduler_ab\": [\n",
                cfg.world, cfg.streams, cfg.iters);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const AbRow& r = rows[i];
      std::printf("  {\"model\": \"%s\", \"num_gradients\": %zu, "
                  "\"fifo_iter_ms\": %.3f, \"sched_iter_ms\": %.3f, "
                  "\"speedup\": %.3f, \"pops\": %llu, "
                  "\"priority_pops\": %llu, \"aged_pops\": %llu, "
                  "\"inversions\": %llu, \"bit_identical\": %s}%s\n",
                  r.model.c_str(), r.num_gradients, r.fifo_ms, r.sched_ms,
                  r.speedup, static_cast<unsigned long long>(r.pops),
                  static_cast<unsigned long long>(r.priority_pops),
                  static_cast<unsigned long long>(r.aged_pops),
                  static_cast<unsigned long long>(r.inversions),
                  r.bit_identical ? "true" : "false",
                  i + 1 < rows.size() ? "," : "");
    }
    std::printf(" ]}\n");
  } else {
    std::printf("\n-- scheduler A/B (real engine, %d ranks, %d streams, "
                "layer-wise consumption) --\n",
                cfg.world, cfg.streams);
    TablePrinter table({"model", "grads", "FIFO ms/iter", "sched ms/iter",
                        "speedup", "pops", "prio pops", "aged",
                        "bit-identical"});
    for (const AbRow& r : rows) {
      table.AddRow({r.model, std::to_string(r.num_gradients),
                    FormatDouble(r.fifo_ms, 2), FormatDouble(r.sched_ms, 2),
                    FormatDouble(r.speedup, 2), std::to_string(r.pops),
                    std::to_string(r.priority_pops),
                    std::to_string(r.aged_pops),
                    r.bit_identical ? "yes" : "NO"});
    }
    table.Print();
  }

  for (const AbRow& r : rows) {
    if (r.fifo_ms == 0.0) {
      std::fprintf(stderr, "A/B FAILURE: %s: engine run failed\n",
                   r.model.c_str());
      return 2;
    }
    if (!r.bit_identical) {
      std::fprintf(stderr,
                   "A/B FAILURE: %s: FIFO and priority dispatch produced "
                   "different parameters — dispatch order leaked into "
                   "results\n",
                   r.model.c_str());
      return 2;
    }
  }
  if (smoke) {
    for (const AbRow& r : rows) {
      if (r.speedup < 1.0) {
        std::fprintf(stderr,
                     "SMOKE FAILURE: %s: scheduler-on %.2f ms/iter did not "
                     "beat FIFO %.2f ms/iter in 3 attempts\n",
                     r.model.c_str(), r.sched_ms, r.fifo_ms);
        return 1;
      }
    }
  }
  return 0;
}
