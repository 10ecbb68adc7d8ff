// The benchmark workloads and the closed-loop harness that runs them
// through the public ThreadedAiaccEngine API.
//
// Load model: one process, one load thread per rank (world 4), and a rank
// starts its next iteration only after WaitIteration returns. The engine's
// own service threads belong to the program under test. The seed is a
// benchmark argument; the engine only ever sees the tensors made from it.
//
// Timing: rank 0 times every iteration. With tracing on, every rank also
// times its own calls into the engine and into dnn (the spans below) on
// alternate blocks of iterations, so the same run yields the per-layer split
// and the cost of the spans themselves.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "core/optimizer.h"
#include "core/sync_bits.h"
#include "core/threaded_engine.h"
#include "dnn/mlp.h"
#include "dnn/zoo.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

namespace core = aiacc::core;
namespace dnn = aiacc::dnn;
namespace telemetry = aiacc::telemetry;
using aiacc::Status;
using Worker = core::ThreadedAiaccEngine::Worker;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
// Cold engines set up (and shut down) per run before the main run, for the
// set-up time median.
constexpr int kSetupEpisodes = 20;
// Fresh engines trained only until the target is met, after the main run,
// so time to target is a median of this many plus one runs.
constexpr int kTargetEpisodes = 2;
constexpr double kWarmupSeconds = 1.0;
// The measured window is cut into blocks this long, and the window's
// timings are medians over its blocks: host contention (CPU steal from
// neighbouring machines) that covers less than half of the window does not
// move them.
constexpr double kBlockSeconds = 4.0;
// Traced runs switch the spans on and off every this many iterations.
constexpr std::int64_t kSpanBlock = 8;
// The injected stall parks the last rank at this iteration.
constexpr std::int64_t kStallIteration = 3;

// ---------------------------------------------------------------------------
// Bench-side spans.

struct Spans {
  std::int64_t compute_ns = 0;  // dnn forward/backward, or modeled compute
  std::int64_t wait_ns = 0;     // blocked in WaitGradient + WaitIteration
  std::int64_t push_ns = 0;     // in Push / PushAll / FlushIteration
  std::int64_t iterations = 0;

  void operator+=(const Spans& o) {
    compute_ns += o.compute_ns;
    wait_ns += o.wait_ns;
    push_ns += o.push_ns;
    iterations += o.iterations;
  }
};

/// Adds the scope's duration to `*sink`; a null sink records nothing.
class Span {
 public:
  explicit Span(std::int64_t* sink)
      : sink_(sink), t0_(sink != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (sink_ != nullptr) {
      *sink_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0_)
                    .count();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t* sink_;
  Clock::time_point t0_;
};

std::int64_t* Sink(Spans* spans, std::int64_t Spans::*field) {
  return spans != nullptr ? &(spans->*field) : nullptr;
}

/// Modeled accelerator compute on a virtual device timeline. The host thread
/// sleeps, so its core stays free for the communication threads as it would
/// while a GPU computes, until the device would finish. A late wake-up of
/// the host does not delay the device: work queues behind the device's own
/// finish time, not behind the host's clock, so scheduler jitter on the
/// sleeps does not add up across the ~128 modeled kernels of an iteration.
class Device {
 public:
  /// Run `us` of compute that may start once the device is free and the
  /// input is ready at `ready`; returns when it has finished.
  void Compute(int us, Clock::time_point ready) {
    free_ = std::max(free_, ready) + std::chrono::microseconds(us);
    std::this_thread::sleep_until(free_);
  }
  [[nodiscard]] Clock::time_point free_at() const { return free_; }
  void Reset() { free_ = Clock::time_point{}; }

 private:
  Clock::time_point free_{};
};

/// Gradient values k * 2^-8 with |k| <= 32: any sum of four is exact in
/// float, so an average over ranks is bit-exact in every reduction order and
/// a reference computed in another order must match bit for bit.
std::vector<float> ExactValues(std::size_t n, std::uint64_t seed) {
  aiacc::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.UniformInt(-32, 31)) / 256.0f;
  return v;
}

std::uint64_t TensorSeed(std::uint64_t seed, int rank, std::size_t tensor) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(rank) * 7919ULL +
         static_cast<std::uint64_t>(tensor) * 104729ULL;
}

bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void FlipLowBit(float& x) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1u;
  std::memcpy(&x, &bits, sizeof bits);
}

// ---------------------------------------------------------------------------
// Workload interface.

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual core::CommConfig Config() const = 0;
  [[nodiscard]] virtual core::FailureConfig Failure() const { return {}; }
  [[nodiscard]] virtual ReplayShape Shape() const = 0;

  /// Fresh model state for every rank, made outside any timed region.
  virtual void Reset() = 0;
  /// Register the rank's gradients (and bind parameters and optimizer).
  virtual Status Register(Worker& worker, int rank) = 0;
  /// One training iteration of one rank.
  virtual Status Iterate(Worker& worker, int rank, std::int64_t it,
                         Spans* spans) = 0;
  /// Rank 0, after its iteration `it` returned OK: whether the quality
  /// target is met. The measured window closes only once it is.
  virtual bool TargetMet(std::int64_t it) = 0;

  /// Gate: after `iterations`, every rank holds bit-identical parameters
  /// or tensors.
  virtual void CheckReplicas(Report& report, Inject inject,
                             std::int64_t iterations) = 0;
  /// Gates of the main run that go beyond replica agreement.
  virtual void CheckRun(Report& /*report*/, Inject /*inject*/,
                        std::int64_t /*iterations*/) {}
};

// ---------------------------------------------------------------------------
// bert_overlap: BERT-large gradients scaled to 64 tensors / 8 MiB per rank,
// layer-wise overlap with engine-applied SGD. Not in BENCHMARK.json: its ~130
// units per iteration hit the engine's lost wake-up about once in 5000
// iterations (perfbench/README.md, Known stall); it runs by hand.

class BertOverlap final : public Workload {
 public:
  explicit BertOverlap(std::uint64_t seed) {
    // Same sampling and scaling as bench_fig10_nlp's ScaleModel: up to 64
    // gradients sampled evenly in forward order, each scaled to the sampled
    // parameter share of 8 MiB and clamped to [mean/2, 2*mean].
    const dnn::ModelDescriptor model = dnn::MakeBertLarge();
    const auto& grads = model.gradients();
    const std::size_t n = grads.size();
    const std::size_t keep = std::min<std::size_t>(kGradCap, n);
    std::vector<double> raw;
    double total = 0.0;
    for (std::size_t k = 0; k < keep; ++k) {
      raw.push_back(static_cast<double>(grads[k * n / keep].NumElements()));
      total += raw.back();
    }
    const double scale = total / static_cast<double>(kTotalElems);
    const double mean = static_cast<double>(kTotalElems) / static_cast<double>(keep);
    for (std::size_t k = 0; k < keep; ++k) {
      char name[32];
      std::snprintf(name, sizeof(name), "g%04zu", k);
      names_.emplace_back(name);
      elems_.push_back(static_cast<std::size_t>(std::clamp(
          raw[k] / scale, std::max(256.0, mean / 2.0), 2.0 * mean)));
    }
    for (int r = 0; r < kWorld; ++r) {
      for (std::size_t b = 0; b < keep; ++b) {
        base_[r].push_back(ExactValues(elems_[b], TensorSeed(seed, r, b)));
      }
    }
  }

  core::CommConfig Config() const override {
    core::CommConfig c;
    c.num_streams = 4;
    c.pipeline_depth = 4;
    c.granularity_bytes = 64u << 10;
    c.priority_urgent_fraction = 1.0f;
    c.priority_aging_ms = 1000;
    return c;
  }
  ReplayShape Shape() const override {
    ReplayShape s;
    s.unit_floats = Config().granularity_bytes / sizeof(float);
    s.depth = Config().pipeline_depth;
    s.streams = Config().num_streams;
    for (std::size_t e : elems_) s.iteration_floats += e;
    s.sync_words = core::SyncWordCount(names_.size());
    return s;
  }
  /// No loss to reach: the target is a fixed number of training steps.
  bool TargetMet(std::int64_t it) override { return it + 1 >= 120; }

  void Reset() override {
    for (int r = 0; r < kWorld; ++r) {
      grad_[r].assign(names_.size(), {});
      param_[r].assign(names_.size(), {});
      for (std::size_t b = 0; b < names_.size(); ++b) {
        grad_[r][b].assign(elems_[b], 0.0f);
        param_[r][b].assign(elems_[b], kInitParam);
      }
      // Bound optimizers must outlive their engine: they live here, in the
      // workload, which outlives every engine the harness builds.
      sgd_[r] = std::make_unique<core::SgdOptimizer>(kMomentum);
      device_[r].Reset();
    }
  }

  Status Register(Worker& worker, int rank) override {
    for (std::size_t b = 0; b < names_.size(); ++b) {
      const Status st = worker.Register(names_[b], grad_[rank][b]);
      if (!st.ok()) return st;
      worker.BindParameter(names_[b], param_[rank][b]);
    }
    worker.BindOptimizer(sgd_[rank].get(), kLr);
    return Status::Ok();
  }

  Status Iterate(Worker& worker, int rank, std::int64_t it,
                 Spans* spans) override {
    Device& device = device_[rank];
    // Backward starts now (the device idled while the host waited) and
    // makes gradients ready back to front.
    device.Compute(0, Clock::now());
    for (std::size_t b = names_.size(); b-- > 0;) {
      {
        Span s(Sink(spans, &Spans::compute_ns));
        device.Compute(kBackwardUs, device.free_at());
        Produce(rank, b, it);
      }
      Span s(Sink(spans, &Spans::push_ns));
      worker.Push(names_[b]);
    }
    {
      Span s(Sink(spans, &Spans::push_ns));
      worker.FlushIteration();
    }
    // Next forward: consume front to back as each parameter lands. A layer
    // starts when the device is free and its parameter is ready; a wait that
    // did not block means the parameter was ready before the device was.
    for (const std::string& name : names_) {
      Clock::time_point ready;
      {
        Span s(Sink(spans, &Spans::wait_ns));
        const auto t0 = Clock::now();
        const Status st = worker.WaitGradient(name);
        if (!st.ok()) return st;
        ready = Clock::now();
        if (ready - t0 < kBlockedAfter) ready = device.free_at();
      }
      Span s(Sink(spans, &Spans::compute_ns));
      device.Compute(kForwardUs, ready);
    }
    Span s(Sink(spans, &Spans::wait_ns));
    return worker.WaitIteration();
  }

  void CheckReplicas(Report& report, Inject inject,
                     std::int64_t /*iterations*/) override {
    if (inject == Inject::kReplica) FlipLowBit(param_[1][0][0]);
    for (int r = 1; r < kWorld; ++r) {
      for (std::size_t b = 0; b < names_.size(); ++b) {
        if (!SameBits(param_[0][b], param_[r][b])) {
          report.Fail("replicas: rank " + std::to_string(r) + " parameter " +
                      names_[b] + " differs from rank 0");
          return;
        }
      }
    }
  }

  /// The engine applied SGD per gradient as its collective landed; a
  /// barriered SGD over the same averaged gradients must give the same bits.
  void CheckRun(Report& report, Inject inject,
                std::int64_t iterations) override {
    const std::size_t n = names_.size();
    std::vector<std::vector<float>> avg(n), step_grad(n), ref(n);
    for (std::size_t b = 0; b < n; ++b) {
      avg[b].assign(elems_[b], 0.0f);
      for (std::size_t i = 0; i < elems_[b]; ++i) {
        float sum = 0.0f;
        for (int r = 0; r < kWorld; ++r) sum += base_[r][b][i];
        avg[b][i] = sum * (1.0f / kWorld);
      }
      step_grad[b].resize(elems_[b]);
      ref[b].assign(elems_[b], kInitParam);
    }
    std::vector<std::span<float>> params;
    std::vector<std::span<const float>> grads;
    for (std::size_t b = 0; b < n; ++b) {
      params.emplace_back(ref[b]);
      grads.emplace_back(step_grad[b]);
    }
    core::SgdOptimizer sgd(kMomentum);
    for (std::int64_t it = 0; it < iterations; ++it) {
      for (std::size_t b = 0; b < n; ++b) Rotate(avg[b], it, step_grad[b]);
      sgd.Step(params, grads, kLr);
    }
    if (inject == Inject::kReference) FlipLowBit(ref[0][0]);
    for (std::size_t b = 0; b < n; ++b) {
      if (!SameBits(ref[b], param_[0][b])) {
        report.Fail("reference: engine-applied SGD parameter " + names_[b] +
                    " differs from the barriered reference after " +
                    std::to_string(iterations) + " iterations");
        return;
      }
    }
    report.notes.push_back("bert_overlap: engine-applied SGD equals the "
                           "barriered reference after " +
                           std::to_string(iterations) + " iterations");
  }

 private:
  static constexpr std::size_t kGradCap = 64;
  static constexpr std::size_t kTotalElems = std::size_t{1} << 21;
  static constexpr int kBackwardUs = 60;
  static constexpr int kForwardUs = 250;
  // A WaitGradient shorter than this did not block.
  static constexpr auto kBlockedAfter = std::chrono::microseconds(20);
  static constexpr double kLr = 0.01;
  static constexpr double kMomentum = 0.9;
  static constexpr float kInitParam = 1.0f;

  /// out = src rotated left by (it mod size): a new gradient every
  /// iteration at the cost of a copy.
  static void Rotate(std::span<const float> src, std::int64_t it,
                     std::span<float> out) {
    const std::size_t off = static_cast<std::size_t>(it) % src.size();
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(off), src.end(),
              out.begin());
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(off),
              out.begin() + static_cast<std::ptrdiff_t>(src.size() - off));
  }

  void Produce(int rank, std::size_t b, std::int64_t it) {
    Rotate(base_[rank][b], it, grad_[rank][b]);
  }

  std::vector<std::string> names_;
  std::vector<std::size_t> elems_;
  std::vector<std::vector<float>> base_[kWorld];
  std::vector<std::vector<float>> grad_[kWorld];
  std::vector<std::vector<float>> param_[kWorld];
  std::unique_ptr<core::SgdOptimizer> sgd_[kWorld];
  Device device_[kWorld];
};

// ---------------------------------------------------------------------------
// ctr_many_tensors: the Section VIII-C CTR profile, ~2000 small tensors.
// Each tensor is clamped to kMaxElems floats, so one iteration's gradients
// (5.9 MiB per rank) fill a single 8 MiB unit. The engine's lost wake-up
// (perfbench/README.md, Known stall) needs the last decrement to land between
// the MPI-process loop's test and its wait. With one unit that loop tests
// once, a whole unit all-reduce before the only decrement; with two or more,
// each earlier unit's notify makes it test again while the rest complete.

class CtrManyTensors final : public Workload {
 public:
  explicit CtrManyTensors(std::uint64_t seed) {
    const dnn::ModelDescriptor model = dnn::MakeCtrModel(2000);
    for (const auto& g : model.gradients()) {
      names_.push_back(g.name);
      elems_.push_back(static_cast<std::size_t>(
          std::min<std::int64_t>(g.NumElements(), kMaxElems)));
    }
    if (Shape().iteration_floats * sizeof(float) > Config().granularity_bytes) {
      std::fprintf(stderr, "ctr_many_tensors: gradients exceed one unit\n");
      std::abort();
    }
    for (int r = 0; r < kWorld; ++r) {
      for (std::size_t b = 0; b < names_.size(); ++b) {
        base_[r].push_back(ExactValues(elems_[b], TensorSeed(seed, r, b)));
      }
    }
  }

  core::CommConfig Config() const override {
    core::CommConfig c;  // default units (8 MiB) and minimum bucket (1 MiB)
    c.num_streams = 4;
    return c;
  }
  /// The one unit of an iteration holds all its gradients.
  ReplayShape Shape() const override {
    ReplayShape s;
    s.depth = Config().pipeline_depth;
    s.streams = Config().num_streams;
    for (std::size_t e : elems_) s.iteration_floats += e;
    s.unit_floats = s.iteration_floats;
    s.sync_words = core::SyncWordCount(names_.size());
    return s;
  }
  /// No loss to reach: the target is a fixed number of training steps.
  bool TargetMet(std::int64_t it) override { return it + 1 >= 480; }

  void Reset() override {
    for (int r = 0; r < kWorld; ++r) grad_[r] = base_[r];
  }

  Status Register(Worker& worker, int rank) override {
    for (std::size_t b = 0; b < names_.size(); ++b) {
      const Status st = worker.Register(names_[b], grad_[rank][b]);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  Status Iterate(Worker& worker, int /*rank*/, std::int64_t /*it*/,
                 Spans* spans) override {
    {
      Span s(Sink(spans, &Spans::push_ns));
      worker.PushAll();
    }
    Span s(Sink(spans, &Spans::wait_ns));
    return worker.WaitIteration();
  }

  /// The first iteration averages the seeded gradients; later iterations
  /// average identical, exactly representable tensors, which must reproduce
  /// them bit for bit. So after any iteration every rank holds exactly the
  /// average, and before the first each still holds its own gradients.
  void CheckReplicas(Report& report, Inject inject,
                     std::int64_t iterations) override {
    if (inject == Inject::kReplica) FlipLowBit(grad_[1][0][0]);
    for (std::size_t b = 0; b < names_.size(); ++b) {
      std::vector<float> expect(elems_[b]);
      for (std::size_t i = 0; i < elems_[b]; ++i) {
        float sum = 0.0f;
        for (int r = 0; r < kWorld; ++r) sum += base_[r][b][i];
        expect[i] = sum * (1.0f / kWorld);
      }
      for (int r = 0; r < kWorld; ++r) {
        if (!SameBits(iterations > 0 ? expect : base_[r][b], grad_[r][b])) {
          report.Fail("replicas: rank " + std::to_string(r) + " tensor " +
                      names_[b] + " is not the exact average");
          return;
        }
      }
    }
  }

 private:
  static constexpr std::int64_t kMaxElems = 1024;

  std::vector<std::string> names_;
  std::vector<std::size_t> elems_;
  std::vector<std::vector<float>> base_[kWorld];
  std::vector<std::vector<float>> grad_[kWorld];
};

// ---------------------------------------------------------------------------
// mlp_robust_fp16: real data-parallel MLP training to a loss target, over
// the fp16 codec and the production fault stack at zero faults.

class MlpRobustFp16 final : public Workload {
 public:
  explicit MlpRobustFp16(std::uint64_t seed)
      : data_(dnn::MakeSyntheticDataset(kSamples, kSizes[0], kSizes[3],
                                        kTaskSeed)) {
    // The task (data and initial weights) is fixed so the loss curve, and
    // with it the step that reaches the target, is the same for every seed.
    // The seed deals the samples to the ranks.
    std::vector<int> order(kSamples);
    for (int i = 0; i < kSamples; ++i) order[static_cast<std::size_t>(i)] = i;
    aiacc::Rng rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    const int per_rank = kSamples / kWorld;
    for (int r = 0; r < kWorld; ++r) {
      for (int k = 0; k < per_rank; ++k) {
        const int s = order[static_cast<std::size_t>(r * per_rank + k)];
        const auto in = data_.inputs.begin() + s * kSizes[0];
        const auto out = data_.targets.begin() + s * kSizes[3];
        x_[r].insert(x_[r].end(), in, in + kSizes[0]);
        y_[r].insert(y_[r].end(), out, out + kSizes[3]);
      }
    }
  }

  core::CommConfig Config() const override {
    core::CommConfig c;
    c.num_streams = 4;
    c.granularity_bytes = 64u << 10;
    c.codec = aiacc::compress::CodecSpec{aiacc::compress::CodecKind::kFp16};
    return c;
  }
  core::FailureConfig Failure() const override {
    core::FailureConfig f;
    f.detect_failures = true;
    f.reliable_transport = true;
    f.degrade_before_abort = true;
    f.collective_timeout_ms = 5000;
    return f;
  }
  ReplayShape Shape() const override {
    ReplayShape s;
    s.unit_floats = Config().granularity_bytes / sizeof(float);
    s.depth = Config().pipeline_depth;
    s.codec = Config().codec;
    s.streams = Config().num_streams;
    dnn::Mlp probe(std::vector<int>(kSizes, kSizes + 4), kTaskSeed);
    s.iteration_floats = probe.NumParameters();
    s.sync_words = core::SyncWordCount(probe.NumTensors());
    return s;
  }
  void Reset() override {
    for (int r = 0; r < kWorld; ++r) {
      model_[r] = std::make_unique<dnn::Mlp>(
          std::vector<int>(kSizes, kSizes + 4), kTaskSeed);
    }
    reached_ = false;
    target_step_ = -1;
    target_loss_ = 0.0;
  }

  Status Register(Worker& worker, int rank) override {
    const auto grads = model_[rank]->GradientTensors();
    for (std::size_t i = 0; i < grads.size(); ++i) {
      const Status st = worker.Register("mlp." + std::to_string(i), grads[i]);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  Status Iterate(Worker& worker, int rank, std::int64_t it,
                 Spans* spans) override {
    dnn::Mlp& m = *model_[rank];
    const int batch = kSamples / kWorld;
    {
      Span s(Sink(spans, &Spans::compute_ns));
      const std::vector<float> pred = m.Forward(x_[rank], batch);
      loss_[rank][it % kLossSlots].store(dnn::Mlp::MseLoss(pred, y_[rank]),
                                         std::memory_order_relaxed);
      m.Backward(x_[rank], y_[rank], batch);
    }
    {
      Span s(Sink(spans, &Spans::push_ns));
      worker.PushAll();
    }
    {
      Span s(Sink(spans, &Spans::wait_ns));
      const Status st = worker.WaitIteration();
      if (!st.ok()) return st;
    }
    Span s(Sink(spans, &Spans::compute_ns));
    m.SgdStep(kLr);
    return Status::Ok();
  }

  /// Every rank wrote its batch loss for `it` before pushing, and rank 0's
  /// WaitIteration(it) returned after every rank's push, so the four losses
  /// are in place. A rank can be at most one iteration ahead of rank 0, so
  /// the slot of `it` is not yet reused.
  bool TargetMet(std::int64_t it) override {
    if (reached_) return true;
    double sum = 0.0;
    for (int r = 0; r < kWorld; ++r) {
      sum += loss_[r][it % kLossSlots].load(std::memory_order_relaxed);
    }
    const double loss = sum / kWorld;
    if (loss <= kTargetLoss) {
      reached_ = true;
      target_step_ = it;
      target_loss_ = loss;
    }
    return reached_;
  }

  void CheckReplicas(Report& report, Inject inject,
                     std::int64_t /*iterations*/) override {
    if (inject == Inject::kReplica) FlipLowBit(model_[1]->ParameterTensors()[0][0]);
    const auto p0 = model_[0]->ParameterTensors();
    for (int r = 1; r < kWorld; ++r) {
      const auto pr = model_[r]->ParameterTensors();
      for (std::size_t i = 0; i < p0.size(); ++i) {
        if (!SameBits(p0[i], pr[i])) {
          report.Fail("replicas: rank " + std::to_string(r) + " tensor mlp." +
                      std::to_string(i) + " differs from rank 0");
          return;
        }
      }
    }
  }

  void CheckRun(Report& report, Inject inject,
                std::int64_t /*iterations*/) override {
    // The injection demands an unreachable loss, as if training had stalled.
    const double target = inject == Inject::kTarget ? -1.0 : kTargetLoss;
    if (!reached_ || target_loss_ > target) {
      report.Fail("target: training loss never reached " +
                  std::to_string(target));
      return;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "mlp_robust_fp16: loss %.9g <= target %.9g at step %lld",
                  target_loss_, kTargetLoss,
                  static_cast<long long>(target_step_));
    report.notes.emplace_back(line);
  }

 private:
  static constexpr int kSizes[4] = {32, 256, 256, 4};
  static constexpr int kSamples = 64;
  static constexpr std::uint64_t kTaskSeed = 7;
  static constexpr float kLr = 0.05f;
  // Reached near step 150 (about 2.5 s). The curve still falls 0.2% per
  // step there, far more than the rounding differences between seeds.
  static constexpr double kTargetLoss = 0.0384;
  static constexpr std::int64_t kLossSlots = 4;

  dnn::SyntheticDataset data_;
  std::vector<float> x_[kWorld];
  std::vector<float> y_[kWorld];
  std::unique_ptr<dnn::Mlp> model_[kWorld];
  std::atomic<double> loss_[kWorld][kLossSlots] = {};
  bool reached_ = false;  // rank 0 thread only while the engine runs
  std::int64_t target_step_ = -1;
  double target_loss_ = 0.0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "bert_overlap") return std::make_unique<BertOverlap>(seed);
  if (name == "ctr_many_tensors") return std::make_unique<CtrManyTensors>(seed);
  if (name == "mlp_robust_fp16") return std::make_unique<MlpRobustFp16>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// The closed-loop harness.

/// Public counters, sampled by rank 0 at the edges of the measured window.
struct Sample {
  Clock::time_point t;
  double cpu_s = 0.0;
  telemetry::RegistrySnapshot engine;
  core::SchedulerStats sched;
  std::uint64_t pool_misses = 0;
  std::uint64_t payload_allocs = 0;
  aiacc::transport::ReliableStats reliable;
};

Sample TakeSample(core::ThreadedAiaccEngine& engine) {
  Sample s;
  s.t = Clock::now();
  s.cpu_s = CpuSeconds();
  s.engine = engine.metrics().Snapshot();
  s.sched = engine.worker(0).scheduler_stats();
  s.pool_misses = aiacc::common::BufferPool::Global().stats().misses;
  s.payload_allocs = telemetry::MetricsRegistry::Global().Snapshot().CounterValue(
      "hotpath.payload_allocs");
  if (engine.reliable_layer() != nullptr) {
    s.reliable = engine.reliable_layer()->stats();
  }
  return s;
}

struct RunPlan {
  bool setup_only = false;  // set up and shut down, no iterations
  double window_s = 0.0;    // else: measure this long
  bool trace = false;
  Inject inject = Inject::kNone;
};

/// Rank 0's iterations within one block of the measured window.
struct Block {
  double seconds = 0.0;
  double cpu_s = 0.0;          // process CPU time
  std::vector<double> iter_s;  // iteration wall times
};

struct EngineRun {
  double setup_s = 0.0;
  double register_ms = 0.0;  // mean over ranks
  double finalize_ms = 0.0;  // mean over ranks
  double target_s = -1.0;    // rank 0: start of iteration 0 to target met
  std::vector<double> iter_s;        // rank 0, window iterations
  std::vector<double> iter_s_spans;  // ... of those, with spans on
  std::vector<double> iter_s_plain;  // ... and with spans off
  std::vector<Block> blocks;         // the window's full blocks (or, in a
                                     // window shorter than one, the window)
  std::int64_t window_iters = 0;
  double window_s = 0.0;
  Sample begin, end;
  Spans spans;  // all ranks, window iterations with spans on
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Status error;
};

/// Build an engine, set it up from one thread per rank, run iterations per
/// `plan`, and tear it down. Every rank runs the same number of iterations:
/// rank 0 alone decides where the run stops and announces it two iterations
/// ahead, because no rank can finish iteration k+1 before rank 0 starts it.
EngineRun RunEngine(Workload& w, const RunPlan& plan) {
  EngineRun run;
  w.Reset();
  Progress& progress = GlobalProgress();
  progress.Reset();

  std::atomic<std::int64_t> stop_at{plan.setup_only ? 0 : kNever};
  std::atomic<std::int64_t> window_first{kNever};
  std::atomic<core::ThreadedAiaccEngine*> published{nullptr};
  Clock::time_point finalize_end[kWorld];
  double register_ms[kWorld] = {};
  double finalize_ms[kWorld] = {};
  Spans spans[kWorld];
  Status errors[kWorld];

  auto rank_main = [&](int r) {
    published.wait(nullptr, std::memory_order_acquire);
    core::ThreadedAiaccEngine* engine = published.load(std::memory_order_acquire);
    Worker& worker = engine->worker(r);
    const auto t0 = Clock::now();
    const Status reg = w.Register(worker, r);
    if (!reg.ok()) {
      std::fprintf(stderr, "register failed on rank %d: %s\n", r,
                   reg.ToString().c_str());
      std::abort();  // ranks cannot finalize inconsistently; a bench bug
    }
    const auto t1 = Clock::now();
    worker.Finalize();
    finalize_end[r] = Clock::now();
    register_ms[r] = Seconds(t1 - t0) * 1e3;
    finalize_ms[r] = Seconds(finalize_end[r] - t1) * 1e3;
    progress.beats.fetch_add(1);

    Clock::time_point run_start = finalize_end[r];
    Clock::time_point window_start;
    Clock::time_point block_start;
    double block_cpu = 0.0;
    Block block;
    for (std::int64_t it = 0; it < stop_at.load(std::memory_order_acquire);
         ++it) {
      progress.started[r].store(it + 1);
      if (plan.inject == Inject::kStall && r == kWorld - 1 &&
          it == kStallIteration) {
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
      }
      const bool span_on = plan.trace && (it / kSpanBlock) % 2 == 1;
      Spans local;
      const auto s0 = Clock::now();
      const Status st = w.Iterate(worker, r, it, span_on ? &local : nullptr);
      const auto s1 = Clock::now();
      if (!st.ok()) {
        errors[r] = st;
        break;
      }
      progress.completed[r].store(it + 1);
      progress.beats.fetch_add(1);
      if (span_on && it >= window_first.load(std::memory_order_acquire)) {
        local.iterations = 1;
        spans[r] += local;
      }
      if (r != 0) continue;

      // Rank 0 owns the clock of the run.
      if (it == 0) run_start = s0;
      const bool target_met = w.TargetMet(it);
      if (target_met && run.target_s < 0) run.target_s = Seconds(s1 - run_start);
      if (window_first.load() == kNever) {
        if (Seconds(s1 - run_start) >= kWarmupSeconds) {
          run.begin = TakeSample(*engine);
          window_start = block_start = run.begin.t;
          block_cpu = run.begin.cpu_s;
          window_first.store(it + 1, std::memory_order_release);
        }
        continue;
      }
      run.iter_s.push_back(Seconds(s1 - s0));
      (span_on ? run.iter_s_spans : run.iter_s_plain)
          .push_back(Seconds(s1 - s0));
      block.iter_s.push_back(Seconds(s1 - s0));
      const double in_window = Seconds(s1 - window_start);
      // A run whose target is never met still ends, as a failed gate.
      const bool capped = in_window >= std::max(3.0 * plan.window_s, 30.0);
      if (stop_at.load() == kNever &&
          ((in_window >= plan.window_s && target_met) || capped)) {
        stop_at.store(it + 2, std::memory_order_release);
      }
      const bool last = it + 1 == stop_at.load();
      // Block k ends with the first iteration that ends k blocks into the
      // window, so a window of whole blocks closes its last one too.
      if (in_window >=
              kBlockSeconds * static_cast<double>(run.blocks.size() + 1) ||
          (last && run.blocks.empty())) {
        const double cpu = CpuSeconds();
        block.seconds = Seconds(s1 - block_start);
        block.cpu_s = cpu - block_cpu;
        run.blocks.push_back(std::move(block));
        block = Block{};
        block_start = s1;
        block_cpu = cpu;
      }
      if (last) {
        run.end = TakeSample(*engine);
        run.window_iters = it + 1 - window_first.load();
        run.window_s = Seconds(run.end.t - window_start);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kWorld; ++r) threads.emplace_back(rank_main, r);
  progress.armed.store(true);
  const auto t0 = Clock::now();
  {
    core::ThreadedAiaccEngine engine(kWorld, w.Config(), w.Failure());
    if (engine.tracing_layer() != nullptr) {
      std::fprintf(stderr, "the engine stacked a tracing transport; unset "
                           "AIACC_TRACE* before measuring\n");
      std::abort();
    }
    published.store(&engine, std::memory_order_release);
    published.notify_all();
    for (auto& t : threads) t.join();
    engine.Shutdown();
  }
  progress.armed.store(false);

  Clock::time_point last = t0;
  for (int r = 0; r < kWorld; ++r) {
    last = std::max(last, finalize_end[r]);
    run.register_ms += register_ms[r] / kWorld;
    run.finalize_ms += finalize_ms[r] / kWorld;
    run.spans += spans[r];
    if (!errors[r].ok() && run.error.ok()) run.error = errors[r];
  }
  run.setup_s = Seconds(last - t0);
  std::int64_t started = 0;
  std::int64_t completed = kNever;
  for (int r = 0; r < kWorld; ++r) {
    started = std::max(started, progress.started[r].load());
    completed = std::min(completed, progress.completed[r].load());
  }
  run.attempted = started;
  run.failed = started - completed;
  return run;
}

double Delta(const Sample& a, const Sample& b, const std::string& counter) {
  return static_cast<double>(b.engine.CounterValue(counter) -
                             a.engine.CounterValue(counter));
}

/// p50 of rank 0's unit latency over the window, from the engine histogram.
double UnitLatencyP50Ms(const Sample& a, const Sample& b) {
  const std::string name = telemetry::RankScoped("engine.unit_latency_s", 0);
  const telemetry::HistogramSnapshot* ha = nullptr;
  const telemetry::HistogramSnapshot* hb = nullptr;
  for (const auto& m : a.engine.metrics) {
    if (m.name == name) ha = &m.histogram;
  }
  for (const auto& m : b.engine.metrics) {
    if (m.name == name) hb = &m.histogram;
  }
  if (ha == nullptr || hb == nullptr) return 0.0;
  telemetry::HistogramSnapshot d = *hb;
  for (std::size_t i = 0; i < d.counts.size(); ++i) d.counts[i] -= ha->counts[i];
  d.count -= ha->count;
  d.sum -= ha->sum;
  return d.count == 0 ? 0.0 : d.Quantile(50.0) * 1e3;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Report RunWorkload(const Options& opt) {
  Report report;
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload, opt.seed);
  if (w == nullptr) {
    report.Fail("unknown workload " + opt.workload);
    return report;
  }

  std::vector<double> setup_s, register_ms, finalize_ms;
  auto account = [&](const EngineRun& run) {
    setup_s.push_back(run.setup_s);
    register_ms.push_back(run.register_ms);
    finalize_ms.push_back(run.finalize_ms);
    report.attempted += run.attempted;
    report.failed += run.failed;
    if (!run.error.ok()) report.Fail("engine: " + run.error.ToString());
    w->CheckReplicas(report, opt.inject, run.attempted - run.failed);
    GlobalProgress().prior_attempted.store(report.attempted);
    GlobalProgress().prior_failed.store(report.failed);
  };

  for (int e = 0; e < kSetupEpisodes && report.correct; ++e) {
    RunPlan plan;
    plan.setup_only = true;
    account(RunEngine(*w, plan));
  }
  if (!report.correct) return report;

  std::vector<double> target_s;
  // A run with an empty window stops once warm-up is over and the target
  // is met. Every run ends with the same gates.
  auto train = [&](const RunPlan& plan) {
    EngineRun run = RunEngine(*w, plan);
    account(run);
    if (!report.correct) return run;
    w->CheckRun(report, opt.inject, run.attempted);
    if (run.target_s < 0) report.Fail("target: not met within the run");
    target_s.push_back(run.target_s);
    return run;
  };

  RunPlan plan;
  plan.window_s = opt.seconds;
  plan.trace = opt.trace;
  plan.inject = opt.inject;
  const EngineRun run = train(plan);
  if (!report.correct) return report;
  if (run.window_iters <= 0) {
    report.Fail("the measured window completed no iteration");
    return report;
  }
  // The target episodes follow the main run, so the time-to-target samples
  // (the main run's start and these) lie at both ends of the run.
  for (int e = 0; e < kTargetEpisodes && report.correct; ++e) train(RunPlan{});
  if (!report.correct) return report;

  const ReplayShape shape = w->Shape();
  {
    ReplayShape wire_shape = shape;
    if (opt.inject == Inject::kWire) {
      // A unit that skips (or gains) the cast codec changes the ratio.
      using aiacc::compress::CodecKind;
      wire_shape.codec.kind = shape.codec.kind == CodecKind::kNone
                                  ? CodecKind::kFp16
                                  : CodecKind::kNone;
    }
    const double ratio = MeasureWireRatio(wire_shape, report);
    const double expect =
        aiacc::compress::IsCast(shape.codec.kind) ? 2.0 : 1.0;
    if (std::fabs(ratio - expect) > 0.005) {
      char line[96];
      std::snprintf(line, sizeof(line), "wire: ratio %.4f, expected %.2f",
                    ratio, expect);
      report.Fail(line);
    }
    if (opt.trace) report.Add("compress.wire_ratio", ratio, "ratio");
  }

  const double iters = static_cast<double>(run.window_iters);
  // Window timings per block.
  std::vector<double> rate, p50, p90, cpu_ms;
  for (const Block& blk : run.blocks) {
    const double n = static_cast<double>(blk.iter_s.size());
    rate.push_back(n / blk.seconds);
    p50.push_back(Quantile(blk.iter_s, 0.5) * 1e3);
    p90.push_back(Quantile(blk.iter_s, 0.9) * 1e3);
    cpu_ms.push_back(blk.cpu_s / n * 1e3);
  }
  char line[320];
  std::snprintf(line, sizeof(line),
                "%s seed %llu: window %.3f s, %lld iterations (rank-0 "
                "iteration-time samples: %zu) in %zu blocks (iterations/s "
                "min %.2f, max %.2f), setup samples %zu (min %.4f s, "
                "max %.4f s)",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                run.window_s, static_cast<long long>(run.window_iters),
                run.iter_s.size(), run.blocks.size(), Quantile(rate, 0.0),
                Quantile(rate, 1.0), setup_s.size(), Quantile(setup_s, 0.0),
                Quantile(setup_s, 1.0));
  report.notes.emplace_back(line);

  if (!opt.trace) {
    // The window's timings are medians over its blocks.
    report.Add("iter_per_s", Median(rate), "1/s");
    report.Add("iter_ms_p50", Median(p50), "ms");
    report.Add("iter_ms_p90", Median(p90), "ms");
    report.Add("time_to_target_s", Median(target_s), "s");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("cpu_ms_per_iter", Median(cpu_ms), "ms");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Add("completed_iter_ratio",
               Ratio(static_cast<double>(report.attempted - report.failed),
                     static_cast<double>(report.attempted)),
               "ratio");
    return report;
  }

  const Sample& a = run.begin;
  const Sample& b = run.end;
  const double span_iters = static_cast<double>(run.spans.iterations);
  report.Add("dnn.compute_ms_per_iter",
             Ratio(static_cast<double>(run.spans.compute_ns), span_iters) / 1e6,
             "ms");
  report.Add("core.exposed_comm_ms_per_iter",
             Ratio(static_cast<double>(run.spans.wait_ns), span_iters) / 1e6,
             "ms");
  report.Add("core.push_us_per_iter",
             Ratio(static_cast<double>(run.spans.push_ns), span_iters) / 1e3,
             "us");
  report.Add("core.register_ms", Median(register_ms), "ms");
  report.Add("core.finalize_ms", Median(finalize_ms), "ms");
  report.Add("core.sync_rounds_per_iter",
             Delta(a, b, telemetry::RankScoped("engine.sync_rounds", 0)) / iters,
             "count");
  report.Add("core.units_per_iter",
             Delta(a, b, telemetry::RankScoped("engine.units_reduced", 0)) / iters,
             "count");
  report.Add("core.bytes_reduced_per_iter",
             Delta(a, b, telemetry::RankScoped("engine.bytes_reduced", 0)) /
                 iters / (1 << 20),
             "MiB");
  report.Add("core.unit_latency_ms_p50", UnitLatencyP50Ms(a, b), "ms");
  report.Add("core.sched_priority_pop_share",
             Ratio(static_cast<double>(b.sched.priority_pops - a.sched.priority_pops),
                   static_cast<double>(b.sched.pops - a.sched.pops)),
             "ratio");
  report.Add("core.sched_inversions_per_iter",
             static_cast<double>(b.sched.inversions - a.sched.inversions) / iters,
             "count");
  const double frames = static_cast<double>(b.reliable.data_frames_sent -
                                            a.reliable.data_frames_sent);
  report.Add("transport.reliable.retransmit_ratio",
             Ratio(static_cast<double>(b.reliable.retransmits -
                                       a.reliable.retransmits),
                   frames),
             "ratio");
  report.Add("transport.reliable.acks_per_frame",
             Ratio(static_cast<double>(b.reliable.acks_sent - a.reliable.acks_sent),
                   frames),
             "ratio");
  report.Add("common.pool_misses_per_iter",
             static_cast<double>(b.pool_misses - a.pool_misses) / iters, "count");
  report.Add("collective.payload_allocs_per_iter",
             static_cast<double>(b.payload_allocs - a.payload_allocs) / iters,
             "count");
  // The spans' own cost: rank 0's iteration time with spans on vs off.
  const double off_p50 = Median(run.iter_s_plain);
  report.Add("bench.span_overhead_pct",
             Ratio(Median(run.iter_s_spans) - off_p50, off_p50) * 100.0, "%");

  RunReplays(shape, report);
  return report;
}

}  // namespace perfbench
