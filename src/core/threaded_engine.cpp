#include "core/threaded_engine.h"

#include <algorithm>
#include <chrono>

#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/logging.h"
#include "core/sync_bits.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"
#include "telemetry/tracer.h"

namespace aiacc::core {
namespace {

// Tag layout (collective/tags.h is the single source of truth): heartbeats
// own tag 0, sync rounds use the low namespace, and each all-reduce unit
// gets its own channel derived from its (rank-agreed) unit id.
using collective::kHeartbeatTag;
using collective::kSyncTag;
using collective::kUnitRetryEpochs;
using collective::UnitEpochTagBase;

// Tier 2: in-band retries per failed unit collective before the engine
// aborts to tier 3 (checkpoint recovery).
constexpr int kMaxUnitRetries = 2;

std::string RankList(const std::vector<int>& ranks) {
  std::string out;
  for (int r : ranks) {
    if (!out.empty()) out += ",";
    out += std::to_string(r);
  }
  return out;
}

}  // namespace

ThreadedAiaccEngine::ThreadedAiaccEngine(int world_size, CommConfig config,
                                         FailureConfig failure)
    : world_size_(world_size),
      config_(config),
      failure_(std::move(failure)),
      metrics_dump_period_ms_(telemetry::MetricsDumpPeriodMs()),
      inproc_(world_size),
      transport_(&inproc_) {
  AIACC_CHECK(world_size >= 1);
  AIACC_CHECK(config_.num_streams >= 1);
  unit_retries_ = &metrics_.GetCounter("engine.unit_retries");
  // One long-lived task per service loop: each rank runs an MPI process and
  // `num_streams` communication streams, plus a heartbeat when detection is
  // on and a metrics dumper when periodic dumping is configured. The pool
  // is sized for all of them at once (they block on each other across
  // ranks, so none may wait for a free worker).
  const std::size_t service_tasks =
      static_cast<std::size_t>(world_size) *
          (1 + static_cast<std::size_t>(config_.num_streams)) +
      (failure_.detect_failures && world_size > 1
           ? static_cast<std::size_t>(world_size)
           : 0) +
      (metrics_dump_period_ms_ > 0 ? 1 : 0);
  service_pool_ = std::make_unique<ThreadPool>(service_tasks);
  if (metrics_dump_period_ms_ > 0) {
    service_pool_->Submit([this] { MetricsDumpLoop(); });
  }
  // Transport stack (bottom to top): inproc -> faulty -> reliable. Faults
  // always sit under the reliable layer, the stack's one sequencing layer:
  // it dedups, resequences and CRC-checks, so a faulty channel yields the
  // exact stream or a non-OK status. With tier 1 off it never resends, so a
  // drop surfaces as the receiver's deadline.
  if (failure_.faults.has_value()) {
    faulty_ = std::make_unique<transport::FaultyTransport>(inproc_,
                                                           *failure_.faults);
    transport_ = faulty_.get();
  }
  if (failure_.faults.has_value() || failure_.reliable_transport) {
    reliable_ = std::make_unique<transport::ReliableTransport>(
        *transport_, failure_.reliable_transport
                         ? failure_.reliable_options
                         : transport::WithoutResend(failure_.reliable_options));
    transport_ = reliable_.get();
  }
  // Observability tier rides on top of everything: the stamp trailer is
  // appended last on send and stripped first on receive, so the reliable
  // layer's CRC covers it and the layers below never see trailer lanes.
  // Stacked iff the tracer records flow-level events right now: tracing on
  // means causal edges wanted, tracing off leaves the stack untouched.
  if (telemetry::RuntimeTracer::Global().enabled(
          telemetry::TraceLevel::kPhase)) {
    tracing_ = std::make_unique<transport::TracingTransport>(*transport_);
    transport_ = tracing_.get();
  }
  workers_.reserve(static_cast<std::size_t>(world_size));
  ranks_.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    workers_.emplace_back(new Worker(this, r));
    auto state = std::make_unique<RankState>();
    // num_gradients is unknown until Finalize; BindGradientCount fixes the
    // urgent cutoff there, before any service loop can push a unit.
    state->scheduler = std::make_unique<ReadySetScheduler>(SchedulerPolicy{
        config_.priority_urgent_fraction, config_.priority_aging_ms, 0});
    ranks_.push_back(std::move(state));
  }
}

ThreadedAiaccEngine::Worker::Worker(ThreadedAiaccEngine* engine, int rank)
    : engine_(engine), rank_(rank) {
  telemetry::MetricsRegistry& m = engine_->metrics_;
  sync_rounds_ =
      &m.GetCounter(telemetry::RankScoped("engine.sync_rounds", rank));
  sync_payload_floats_ =
      &m.GetCounter(telemetry::RankScoped("engine.sync_payload_floats", rank));
  units_reduced_ =
      &m.GetCounter(telemetry::RankScoped("engine.units_reduced", rank));
  bytes_reduced_ =
      &m.GetCounter(telemetry::RankScoped("engine.bytes_reduced", rank));
  iterations_ =
      &m.GetCounter(telemetry::RankScoped("engine.iterations", rank));
  // 1us .. ~0.5s exponential edges: unit latency spans the staging gather
  // (tier 2 only) + ring all-reduce (which reads and writes the tensors)
  // + accounting.
  unit_latency_ =
      &m.GetHistogram(telemetry::RankScoped("engine.unit_latency_s", rank),
                      telemetry::ExponentialBounds(1e-6, 20));
}

ThreadedAiaccEngine::RankStats ThreadedAiaccEngine::Worker::stats()
    const noexcept {
  RankStats s;
  s.sync_rounds = sync_rounds_->Value();
  s.units_reduced = units_reduced_->Value();
  s.bytes_reduced = bytes_reduced_->Value();
  s.iterations = iterations_->Value();
  return s;
}

void ThreadedAiaccEngine::MetricsDumpLoop() {
  SetThreadLogContext(-1, "metrics-dump");
  const std::string dest = telemetry::GlobalEnvOptions().metrics_dump.empty()
                               ? "stderr"
                               : telemetry::GlobalEnvOptions().metrics_dump;
  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::milliseconds(metrics_dump_period_ms_);
  auto next_dump = Clock::now() + period;
  while (!stopped()) {
    // Sleep in short slices so engine teardown never waits a full period.
    const auto now = Clock::now();
    if (now < next_dump) {
      std::this_thread::sleep_for(
          std::min<Clock::duration>(next_dump - now,
                                    std::chrono::milliseconds(100)));
      continue;
    }
    const Status st = telemetry::DumpMetrics(metrics_.Snapshot(), dest);
    if (!st.ok()) {
      LOG_WARN << "periodic metrics dump failed: " << st.ToString();
      return;
    }
    next_dump += period;
  }
}

ThreadedAiaccEngine::~ThreadedAiaccEngine() { Shutdown(); }

void ThreadedAiaccEngine::Shutdown() {
  if (shutdown_.exchange(true)) return;
  // An abort has already woken every waiter (or is about to, on the
  // thread that stored `aborted_`), so only the join is left.
  if (!aborted_.load(std::memory_order_acquire)) WakeAll();
  // Every service loop observes the signals above and returns; destroying
  // the pool joins its workers.
  service_pool_.reset();
}

void ThreadedAiaccEngine::WakeAll() {
  for (auto& state : ranks_) state->scheduler->Shutdown();
  transport_->Shutdown();
  for (auto& state : ranks_) {
    {
      common::MutexLock lock(state->handoff_mu);
      state->handoff_cv.NotifyAll();
    }
    common::MutexLock lock(state->mu);
    state->cv.NotifyAll();
  }
}

Status ThreadedAiaccEngine::health() const {
  if (!aborted_.load(std::memory_order_acquire)) return Status::Ok();
  common::MutexLock lock(abort_mu_);
  return abort_status_;
}

std::vector<int> ThreadedAiaccEngine::SuspectedRanks() const {
  common::MutexLock lock(abort_mu_);
  return suspected_;
}

void ThreadedAiaccEngine::Abort(Status status, std::vector<int> suspected) {
  AIACC_CHECK(!status.ok());
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::Global();
  for (int r : suspected) {
    flight.Record(telemetry::FlightSeverity::kError, "engine", "suspect", r);
  }
  flight.Record(telemetry::FlightSeverity::kFatal, "engine", "abort",
                /*rank=*/-1, /*channel=*/-1, /*tag=*/-1,
                /*detail0=*/static_cast<std::int64_t>(status.code()));
  {
    common::MutexLock lock(abort_mu_);
    for (int r : suspected) {
      auto it = std::lower_bound(suspected_.begin(), suspected_.end(), r);
      if (it == suspected_.end() || *it != r) suspected_.insert(it, r);
    }
    if (!aborted_.exchange(true, std::memory_order_acq_rel)) {
      abort_status_ = std::move(status);  // first failure wins
    }
  }
  (void)flight.DumpToEnvDir("abort");  // best effort: logs on failure
  // Wake every blocked party: the MPI processes waiting for pushes, comm
  // streams, collective receivers, and the workers parked in WaitIteration.
  // The engine is dead from here on — recovery means rebuilding a fresh one
  // over the survivors.
  WakeAll();
}

void ThreadedAiaccEngine::HandleCollectiveFailure(int rank,
                                                  const Status& status) {
  if (shutdown_.load(std::memory_order_acquire)) return;  // normal teardown
  telemetry::FlightRecorder::Global().Record(
      telemetry::FlightSeverity::kError, "engine", "collective-failed", rank,
      /*channel=*/-1, /*tag=*/-1,
      /*detail0=*/static_cast<std::int64_t>(status.code()));
  Abort(Status(status.code(), "rank " + std::to_string(rank) +
                                  " collective failed: " + status.message()),
        {});
}

Status ThreadedAiaccEngine::Worker::Register(const std::string& name,
                                             std::span<float> tensor) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  AIACC_RETURN_IF_ERROR(
      state.registry.Register(name, tensor.size() * sizeof(float)));
  state.pending_reg.emplace_back(name, tensor);
  return Status::Ok();
}

void ThreadedAiaccEngine::Worker::Finalize() {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  AIACC_CHECK(!state.pending_reg.empty());
  state.registry.Finalize();
  // Tensor lookup by registry id (name-sorted order, identical on every
  // rank — the paper's sorted registration).
  state.tensors.resize(static_cast<std::size_t>(state.registry.size()));
  state.residuals.resize(static_cast<std::size_t>(state.registry.size()));
  const bool error_feedback =
      compress::UsesErrorFeedback(engine_->config_.codec.kind);
  for (const auto& [name, span] : state.pending_reg) {
    auto id = state.registry.IdOf(name);
    AIACC_CHECK(id.ok());
    state.tensors[static_cast<std::size_t>(*id)] = span;
    if (error_feedback) {
      state.residuals[static_cast<std::size_t>(*id)].assign(span.size(), 0.0f);
    }
  }
  {
    common::MutexLock lock(state.handoff_mu);
    state.pushed = BitVector(static_cast<std::size_t>(state.registry.size()));
  }
  {
    common::MutexLock lock(state.mu);
    state.reduced_bytes.assign(
        static_cast<std::size_t>(state.registry.size()), 0);
    state.gradients_remaining = state.registry.size();
  }
  // Fix the urgent-priority cutoff now that the gradient-id space is known
  // (ids are name-sorted and identical on every rank, so every rank derives
  // the same cutoff).
  state.scheduler->BindGradientCount(state.registry.size());
  // Resolve bound parameters to registry order for the streamed optimizer.
  if (state.optimizer != nullptr) {
    state.params.assign(static_cast<std::size_t>(state.registry.size()),
                        std::span<float>{});
    for (const auto& [name, span] : state.pending_params) {
      auto id = state.registry.IdOf(name);
      AIACC_CHECK(id.ok() && "parameter bound for unregistered gradient");
      AIACC_CHECK(span.size() ==
                  state.tensors[static_cast<std::size_t>(*id)].size());
      state.params[static_cast<std::size_t>(*id)] = span;
    }
    for (const auto& p : state.params) {
      AIACC_CHECK(!p.empty() &&
                  "BindOptimizer requires a parameter for every gradient");
    }
  }

  // Wait for every rank before starting the communication threads: the
  // collectives need all participants.
  {
    common::MutexLock lock(engine_->finalize_mu_);
    if (++engine_->finalized_count_ == engine_->world_size_) {
      engine_->finalize_cv_.NotifyAll();
    } else {
      while (engine_->finalized_count_ != engine_->world_size_) {
        engine_->finalize_cv_.Wait(lock);
      }
    }
  }

  engine_->service_pool_->Submit([this] { engine_->MpiProcessLoop(rank_); });
  if (engine_->failure_.detect_failures && engine_->world_size_ > 1) {
    engine_->service_pool_->Submit(
        [this] { engine_->HeartbeatLoop(rank_); });
  }
  for (int s = 0; s < engine_->config_.num_streams; ++s) {
    engine_->service_pool_->Submit(
        [this, s] { engine_->CommThreadLoop(rank_, s); });
  }
}

void ThreadedAiaccEngine::Worker::Push(const std::string& name) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  auto id = state.registry.IdOf(name);
  AIACC_CHECK(id.ok());
  AIACC_TRACE_INSTANT("engine", "grad-ready");
  {
    common::MutexLock lock(state.handoff_mu);
    state.pushed.Set(static_cast<std::size_t>(*id));
  }
  state.handoff_cv.NotifyOne();
}

void ThreadedAiaccEngine::Worker::FlushIteration() {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  {
    common::MutexLock lock(state.handoff_mu);
    state.flushed = true;
  }
  state.handoff_cv.NotifyOne();
}

void ThreadedAiaccEngine::Worker::PushAll() {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  {
    common::MutexLock lock(state.handoff_mu);
    state.pushed.SetAll();
    state.flushed = true;
  }
  state.handoff_cv.NotifyOne();
}

Status ThreadedAiaccEngine::Worker::WaitIteration() {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  common::MutexLock lock(state.mu);
  while (!state.iteration_done &&
         !engine_->aborted_.load(std::memory_order_acquire)) {
    state.cv.Wait(lock);
  }
  if (!state.iteration_done) {
    // Aborted: return only once no comm stream is inside a unit, so the
    // caller may free its tensors as soon as it sees the error.
    while (state.units_in_flight != 0) state.cv.Wait(lock);
    return engine_->health();
  }
  state.iteration_done = false;
  iterations_->Add();
  return Status::Ok();
}

void ThreadedAiaccEngine::Worker::BindOptimizer(Optimizer* optimizer,
                                                double lr) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  AIACC_CHECK(!state.registry.finalized());
  AIACC_CHECK(optimizer != nullptr);
  state.optimizer = optimizer;
  common::MutexLock lock(state.mu);
  state.lr = lr;
}

void ThreadedAiaccEngine::Worker::BindParameter(const std::string& name,
                                                std::span<float> param) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  AIACC_CHECK(!state.registry.finalized());
  for (const auto& [existing, span] : state.pending_params) {
    AIACC_CHECK(existing != name && "parameter already bound");
  }
  state.pending_params.emplace_back(name, param);
}

void ThreadedAiaccEngine::Worker::SetLearningRate(double lr) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  common::MutexLock lock(state.mu);
  state.lr = lr;
}

Status ThreadedAiaccEngine::Worker::WaitGradient(const std::string& name) {
  RankState& state = *engine_->ranks_[static_cast<std::size_t>(rank_)];
  auto id = state.registry.IdOf(name);
  AIACC_CHECK(id.ok());
  const auto idx = static_cast<std::size_t>(*id);
  const std::size_t bytes = state.registry.Get(*id).bytes;
  common::MutexLock lock(state.mu);
  // `reduced_bytes` is zeroed at the *end* of each iteration (just before
  // iteration_done flips), so between iterations every slot reads 0 and a
  // caller arriving before the next protocol round can never see the
  // previous iteration's full count as "done".
  while (state.reduced_bytes[idx] != bytes && !state.iteration_done &&
         !engine_->aborted_.load(std::memory_order_acquire)) {
    state.cv.Wait(lock);
  }
  if (state.reduced_bytes[idx] == bytes || state.iteration_done) {
    return Status::Ok();
  }
  while (state.units_in_flight != 0) state.cv.Wait(lock);  // as WaitIteration
  return engine_->health();
}

SchedulerStats ThreadedAiaccEngine::Worker::scheduler_stats() const {
  return engine_->ranks_[static_cast<std::size_t>(rank_)]->scheduler->stats();
}

void ThreadedAiaccEngine::MpiProcessLoop(int rank) {
  SetThreadLogContext(rank, "mpi");
  // The sync bit-vector is reused across every iteration of this rank's
  // protocol — after the first round the engine's control plane allocates
  // nothing per iteration.
  std::vector<float> sync_scratch;
  while (!stopped()) {
    RunIterationProtocol(rank, sync_scratch);
  }
}

void ThreadedAiaccEngine::HeartbeatLoop(int rank) {
  SetThreadLogContext(rank, "hb");
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration<double, std::milli>(
      failure_.heartbeat_interval_ms);
  const auto timeout = std::chrono::duration<double, std::milli>(
      failure_.heartbeat_timeout_ms);
  std::vector<Clock::time_point> last_seen(
      static_cast<std::size_t>(world_size_), Clock::now());
  std::uint64_t beat = 0;
  auto prev_loop = Clock::now();
  // Heartbeats are datagrams: gaps are fine, silence is not. They run on
  // the wire beneath the reliable layer, whose in-order TryRecv would stall
  // behind one dropped beat when it does not resend.
  transport::Transport& wire =
      faulty_ ? static_cast<transport::Transport&>(*faulty_) : inproc_;
  while (!stopped()) {
    // Starvation guard: if *this* thread was descheduled for a large slice
    // of the suspicion window, its staleness view is invalid — peers may
    // have beaten the whole time. Refresh rather than falsely accuse.
    const auto loop_start = Clock::now();
    if (loop_start - prev_loop > timeout / 2) {
      std::fill(last_seen.begin(), last_seen.end(), loop_start);
    }
    prev_loop = loop_start;
    auto& pool = common::BufferPool::Global();
    for (int peer = 0; peer < world_size_; ++peer) {
      if (peer == rank) continue;
      transport::Payload pulse = pool.Acquire(1);
      pulse[0] = static_cast<float>(beat);
      wire.Send(rank, peer, kHeartbeatTag, std::move(pulse));
    }
    ++beat;
    AIACC_TRACE_INSTANT_V("engine.hb", "heartbeat");
    for (int peer = 0; peer < world_size_; ++peer) {
      if (peer == rank) continue;
      while (auto pulse = wire.TryRecv(rank, peer, kHeartbeatTag)) {
        last_seen[static_cast<std::size_t>(peer)] = Clock::now();
        pool.Release(std::move(*pulse));
      }
    }

    const auto now = Clock::now();
    std::vector<int> missing;
    bool others_fresh = true;  // every non-missing peer seen recently
    for (int peer = 0; peer < world_size_; ++peer) {
      if (peer == rank) continue;
      const auto silence = now - last_seen[static_cast<std::size_t>(peer)];
      if (silence > timeout) {
        missing.push_back(peer);
      } else if (silence > timeout / 2) {
        others_fresh = false;
      }
    }
    // A minority verdict needs a stable picture: if the remaining peers are
    // also going stale (they are about to cross the deadline too — e.g. we
    // are the isolated one and their clocks just differ by a beat), wait
    // for the next check instead of accusing whoever expired first.
    if (!missing.empty() &&
        (others_fresh ||
         2 * static_cast<int>(missing.size()) > world_size_ - 1)) {
      // Majority of peers silent: more likely *we* are the isolated /
      // crashed node — indict ourselves so survivors and victim converge on
      // the same suspect set.
      if (2 * static_cast<int>(missing.size()) > world_size_ - 1) {
        Abort(Unavailable("rank " + std::to_string(rank) +
                          " isolated: no heartbeat from ranks " +
                          RankList(missing)),
              {rank});
      } else {
        Abort(Unavailable("heartbeat deadline missed by ranks " +
                          RankList(missing)),
              missing);
      }
      return;
    }
    std::this_thread::sleep_for(interval);
  }
}

void ThreadedAiaccEngine::RunIterationProtocol(
    int rank, std::vector<float>& sync_scratch) {
  RankState& state = *ranks_[static_cast<std::size_t>(rank)];
  Worker& worker = *workers_[static_cast<std::size_t>(rank)];
  const int n = state.registry.size();

  // Fresh iteration state (reduced_bytes, gradients_remaining) was reset
  // when the previous iteration closed (not here) so a WaitGradient caller
  // racing ahead of this protocol round never reads a stale full count.
  // Advance iteration-wide optimizer state (Adam's timestep) before any
  // unit can be pushed: every StepTensor this iteration happens-after this
  // call via the scheduler handoff.
  if (state.optimizer != nullptr) {
    state.optimizer->BeginIteration(state.params);
  }
  StreamingPacker packer(config_.granularity_bytes);
  BitVector local_ready(static_cast<std::size_t>(n));
  int agreed_total = 0;
  bool flush_seen = false;

  // Block until the worker produces something (or the engine stops).
  if (!TakePushed(state, local_ready, flush_seen)) return;

  // Bit-packed sync payload: 32 readiness bits per float word (sync_bits.h)
  // instead of one 0/1 float per gradient — a 32x cut in per-round traffic.
  const std::size_t sync_words = SyncWordCount(static_cast<std::size_t>(n));
  sync_scratch.resize(sync_words);
  std::span<float> sync_vector(sync_scratch);
  while (agreed_total < n) {
    // Decentralized synchronization round: AND-all-reduce the bit-packed
    // readiness vector among the MPI processes (the intersection of every
    // rank's ready set, exactly what the old kMin over 0/1 floats
    // computed). Every rank executes the same number of rounds: the agreed
    // count after each round is identical everywhere, and the loop
    // condition depends only on it.
    PackSyncBits(local_ready, sync_vector);
    collective::Comm comm{transport_, rank, world_size_, kSyncTag,
                          failure_.collective_timeout_ms};
    const Status st = [&] {
      AIACC_TRACE_SPAN("engine", "sync-round");
      return collective::RingAllReduce(comm, sync_vector,
                                       collective::ReduceOp::kBitAnd);
    }();
    if (!st.ok()) {
      HandleCollectiveFailure(rank, st);
      return;
    }
    if (stopped()) return;
    worker.sync_rounds_->Add();
    worker.sync_payload_floats_->Add(sync_words);

    // Gradients agreed by everyone enter the packing stream (in id order,
    // so all ranks build identical units with identical unit ids).
    for (int i = 0; i < n; ++i) {
      if (SyncBitSet(sync_vector, static_cast<std::size_t>(i)) &&
          local_ready.Test(static_cast<std::size_t>(i))) {
        local_ready.Clear(static_cast<std::size_t>(i));
        packer.Add(i, state.registry.Get(i).bytes);
        ++agreed_total;
      }
    }
    if (agreed_total == n) packer.Flush();
    while (packer.HasReadyUnit()) {
      state.scheduler->Push(packer.PopReadyUnit());
    }
    // If production continues, wait for more so the loop does not spin on
    // empty rounds.
    if (agreed_total < n && !flush_seen &&
        !TakePushed(state, local_ready, flush_seen)) {
      return;
    }
  }

  // Take this iteration's flush if every gradient was agreed before it
  // arrived; a stale flush must never leak into the next iteration.
  if (!flush_seen) {
    if (!TakePushed(state, local_ready, flush_seen)) return;
    AIACC_CHECK(flush_seen && local_ready.None() &&
                "gradient pushed after all were agreed");
  }

  // All units are in flight; wait for the stream pool to finish them.
  {
    common::MutexLock lock(state.mu);
    while (state.gradients_remaining != 0 && !stopped()) state.cv.Wait(lock);
    if (stopped()) return;
    // Close the iteration: zero the per-gradient progress *before* flipping
    // iteration_done, so once the worker is released every slot already
    // reads "nothing reduced yet" for the next iteration (WaitGradient
    // relies on this ordering).
    std::fill(state.reduced_bytes.begin(), state.reduced_bytes.end(), 0);
    state.gradients_remaining = n;
    state.iteration_done = true;
  }
  state.cv.NotifyAll();
}

bool ThreadedAiaccEngine::TakePushed(RankState& state, BitVector& ready,
                                     bool& flush_seen) {
  common::MutexLock lock(state.handoff_mu);
  while (state.pushed.None() && !state.flushed && !stopped()) {
    state.handoff_cv.Wait(lock);
  }
  if (stopped()) return false;
  ready.OrCombine(state.pushed);
  state.pushed.Reset();
  flush_seen = flush_seen || state.flushed;
  state.flushed = false;
  return true;
}

void ThreadedAiaccEngine::CommThreadLoop(int rank, int stream_index) {
  SetThreadLogContext(rank, "comm", stream_index);
  RankState& state = *ranks_[static_cast<std::size_t>(rank)];
  Worker& worker = *workers_[static_cast<std::size_t>(rank)];
  auto& buffer_pool = common::BufferPool::Global();
  const bool retry_units = failure_.degrade_before_abort;
  // Sparse codecs and the hierarchical all-reduce compute in place, on a
  // pooled work copy of the tensors, and finish through WritePieces. The
  // work copy reaches the tensors only after success, so they are intact
  // for every later attempt.
  const bool sparse = compress::IsSparse(config_.codec.kind);
  const bool hierarchical_first =
      !sparse && config_.algorithm == collective::Algorithm::kHierarchical &&
      world_size_ % 2 == 0 && world_size_ > 2;
  // The current unit's tensor segments, reused across units so the steady
  // state allocates nothing.
  std::vector<std::span<float>> pieces;
  std::vector<std::span<float>> residual_pieces;
  for (;;) {
    auto unit = state.scheduler->PopFor(stream_index);
    if (!unit.has_value()) return;
    {
      // The ring reads and writes the caller's tensors, so a unit counts
      // as in flight from before its first read until its accounting; an
      // abort that a waiter has already returned on hands the tensors back.
      common::MutexLock lock(state.mu);
      if (aborted_.load(std::memory_order_acquire)) return;
      ++state.units_in_flight;
    }
    auto leave_unit = [&state] {
      {
        common::MutexLock lock(state.mu);
        --state.units_in_flight;
      }
      state.cv.NotifyAll();
    };
    const auto unit_begin = std::chrono::steady_clock::now();
    // Dispatch telemetry: the queue-wait span (backdated to the push) with
    // the unit's priority, plus an inversion marker when an urgent unit was
    // overtaken by less-urgent dispatches while it waited. trace_analyze.py
    // aggregates these into the per-iteration priority-inversion stat.
    const ReadySetScheduler::PopInfo pop = state.scheduler->last_pop();
    {
      auto& tracer = telemetry::RuntimeTracer::Global();
      if (tracer.enabled(telemetry::TraceLevel::kPhase)) {
        const std::int64_t now = tracer.NowNs();
        const std::int64_t waited = pop.pop_ns - pop.push_ns;
        tracer.RecordSpan("engine.sched", "unit.wait", now - waited, now,
                          static_cast<int>(unit->unit_id), "priority",
                          pop.priority);
        if (pop.urgent && pop.bypassed > 0) {
          tracer.RecordInstant("engine.sched", "sched.inversion",
                               static_cast<int>(unit->unit_id), "bypassed",
                               pop.bypassed);
        }
      }
    }
    AIACC_TRACE_SPAN_IDX("engine.unit", "unit",
                         static_cast<int>(unit->unit_id));
    const std::size_t bytes = unit->TotalBytes();
    AIACC_CHECK(bytes % sizeof(float) == 0);
    const std::size_t len = bytes / sizeof(float);
    // The unit's segments of the gradient tensors are the collective's
    // input and output pieces: the ring reads each slice from them and
    // writes the averaged slice straight back, so there is neither a gather
    // nor a scatter-back.
    UnitPieces(*unit, state.tensors, pieces);
    std::vector<float> work;
    // A ring attempt that tier 2 may retry reduces from pooled staging,
    // gathered just before the unit's first ring attempt: no collective
    // writes its input, so every ring attempt reduces from these same bytes
    // even after a failed attempt has partly overwritten the tensors.
    // Without tier 2 a failed unit aborts the engine, and the tensors may
    // hold a partial result, as they would anyway.
    bool staged = false;
    std::vector<float> staging;
    std::span<float> staging_piece;
    std::span<const std::span<float>> ring_input = pieces;
    // Sparse codecs carry an error-feedback residual alongside the data.
    // CompressedAllReduce updates its residual span before the ring runs,
    // so every attempt re-gathers it from the persistent copy, which is
    // committed only after success.
    std::vector<float> residual_staging;
    if (sparse) {
      UnitPieces(*unit, state.residuals, residual_pieces);
      residual_staging = buffer_pool.Acquire(len);
    }
    auto reduce_work_copy = [&](auto&& all_reduce) {
      if (work.empty()) work = buffer_pool.Acquire(len);
      collective::ReadPieces(pieces, work);
      const Status result = all_reduce(std::span<float>(work));
      if (result.ok()) collective::WritePieces(work, pieces);
      return result;
    };

    // Attempt loop (tier 2): a failed all-reduce is retried in-band on a
    // fresh tag epoch at depth 1 instead of aborting outright. Collective
    // failures are symmetric (every rank of the wedged ring times out), so
    // per-rank epoch counters advance in lockstep and all ranks meet again
    // on the same retry namespace; the old epoch's tags are never reused,
    // so stale half-ring messages from the failed attempt are inert.
    const int max_attempts = retry_units ? 1 + kMaxUnitRetries : 1;
    Status st;
    int epoch = 0;  // outlives the loop: names the failing tag on abort
    for (int attempt = 0;; ++attempt) {
      if (sparse) {
        collective::ReadPieces(residual_pieces, residual_staging);
      }

      epoch = 0;
      if (retry_units) {
        common::MutexLock lock(state.mu);
        epoch = state.unit_tag_epoch[unit->unit_id];
      }
      // One concurrent all-reduce per unit, on the unit's own (epoch-fresh)
      // tag channel — this thread is one "communication stream" of
      // Algorithm 1.
      collective::Comm comm{transport_, rank, world_size_,
                            UnitEpochTagBase(unit->unit_id, epoch),
                            failure_.collective_timeout_ms};
      // Attempt 0 runs at the configured depth. Retries always run
      // unpipelined — the retry decision is per-rank-symmetric but not
      // *agreed*, so depth 1 is the only value every rank can assume
      // without coordination.
      comm.pipeline_depth = attempt == 0 ? config_.pipeline_depth : 1;
      comm.codec = config_.codec;
      if (sparse) {
        // Sparse codecs need the error-feedback residual and use one
        // record-all-gather regardless of algorithm/depth.
        st = reduce_work_copy([&](std::span<float> data) {
          return collective::CompressedAllReduce(
              comm, data, collective::ReduceOp::kAvg,
              std::span<float>(residual_staging));
        });
      } else if (attempt == 0 && hierarchical_first) {
        st = reduce_work_copy([&](std::span<float> data) {
          return collective::HierarchicalAllReduce(
              comm, /*gpus_per_host=*/2, data, collective::ReduceOp::kAvg);
        });
      } else {
        if (retry_units && !staged) {
          staging = buffer_pool.Acquire(len);
          collective::ReadPieces(pieces, staging);
          staging_piece = staging;
          ring_input = std::span(&staging_piece, 1);
          staged = true;
        }
        st = collective::RingAllReduce(comm, ring_input, pieces,
                                       collective::ReduceOp::kAvg);
      }
      if (st.ok()) break;
      if (stopped() || st.code() == StatusCode::kUnavailable) {
        break;  // teardown/abort — retrying a dead transport is pointless
      }
      if (attempt + 1 >= max_attempts) break;
      bool epochs_left = true;
      {
        common::MutexLock lock(state.mu);
        int& e = state.unit_tag_epoch[unit->unit_id];
        if (e + 1 >= kUnitRetryEpochs) {
          epochs_left = false;  // retry namespace exhausted -> tier 3
        } else {
          ++e;
        }
      }
      if (!epochs_left) break;
      unit_retries_->Add();
      telemetry::FlightRecorder::Global().Record(
          telemetry::FlightSeverity::kWarn, "engine", "unit-retry", rank,
          /*channel=*/-1, UnitEpochTagBase(unit->unit_id, epoch),
          /*detail0=*/unit->unit_id, /*detail1=*/epoch);
      AIACC_TRACE_INSTANT_V("engine.unit", "unit-retry");
      LOG_INFO << "rank " << rank << " retrying unit " << unit->unit_id
               << " (attempt " << attempt + 1 << "): " << st.ToString();
    }
    auto release_buffers = [&] {
      if (staged) buffer_pool.Release(std::move(staging));
      if (!work.empty()) buffer_pool.Release(std::move(work));
      if (sparse) buffer_pool.Release(std::move(residual_staging));
    };
    if (!st.ok()) {
      release_buffers();
      leave_unit();
      telemetry::FlightRecorder::Global().Record(
          telemetry::FlightSeverity::kError, "engine", "unit-failed", rank,
          /*channel=*/-1, UnitEpochTagBase(unit->unit_id, epoch),
          /*detail0=*/unit->unit_id, /*detail1=*/epoch);
      HandleCollectiveFailure(rank, st);
      return;
    }
    if (stopped()) {
      release_buffers();
      leave_unit();
      return;
    }
    // Commit the updated error-feedback residual only now that the
    // collective succeeded (a retried attempt must not see a residual that
    // was already consumed by a failed ring).
    if (sparse) collective::WritePieces(residual_staging, residual_pieces);
    release_buffers();

    // The tensor bytes are written; account for completed gradients. The
    // writes above happen-before this critical section, and so before
    // every WaitGradient, StepTensor and WaitIteration that reads them.
    int completed = 0;
    bool last_after_abort = false;
    {
      common::MutexLock lock(state.mu);
      last_after_abort = --state.units_in_flight == 0 &&
                         aborted_.load(std::memory_order_acquire);
      for (const UnitSegment& seg : unit->segments) {
        const auto gid = static_cast<std::size_t>(seg.gradient_id);
        auto& done = state.reduced_bytes[gid];
        done += seg.length;
        if (done == state.registry.Get(seg.gradient_id).bytes) {
          ++completed;
          // Optimizer/comm overlap: step this parameter now, under mu,
          // while the other streams keep reducing the remaining units. The
          // gradient tensor already holds the averaged value.
          if (state.optimizer != nullptr) {
            AIACC_TRACE_SPAN_IDX("engine.opt", "step-tensor",
                                 seg.gradient_id);
            state.optimizer->StepTensor(gid, state.params[gid],
                                        state.tensors[gid], state.lr);
          }
        }
      }
      state.gradients_remaining -= completed;
      worker.units_reduced_->Add();
      worker.bytes_reduced_->Add(bytes);
    }
    worker.unit_latency_->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      unit_begin)
            .count());
    if (completed > 0 || last_after_abort) {
      // Notify on *every* batch of completed gradients (not only the last):
      // WaitGradient callers sleep on the same condvar as the protocol's
      // end-of-iteration wait, and so do aborted waiters draining
      // units_in_flight.
      state.cv.NotifyAll();
    }
  }
}

}  // namespace aiacc::core
