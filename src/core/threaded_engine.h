// The AIACC-Training runtime with *real* concurrency — the functional twin
// of the simulated AiaccEngine, structured exactly like the paper's Fig. 4-6:
//
//   * each rank has a training-worker thread (the caller: computes real
//     gradients) and a communication-servicing thread (the "MPI process");
//   * the worker pushes ready gradients into a bounded gradient queue (the
//     CUDA-MPI-aware message queue of §V-A-2);
//   * the MPI process marks the gradient synchronization bit-vector and runs
//     decentralized min-all-reduce rounds over it (as 0/1 floats through the
//     real ring collective — a min over bits is the intersection);
//   * agreed gradients stream through the packer into all-reduce units; a
//     pool of `num_streams` communication threads runs one real ring
//     all-reduce per unit concurrently (each on its own tag channel —
//     Algorithm 1 with actual threads instead of CUDA streams);
//   * each unit's ring reads its slices straight from the caller's tensors
//     and writes the averaged slices straight back (no gather, no
//     scatter-back pass); only a unit that tier 2 may retry
//     (FailureConfig::degrade_before_abort) is gathered once into pooled
//     staging, just before its first ring attempt, so every ring attempt
//     reruns from the pre-ring bytes (sparse-codec and hierarchical
//     attempts reduce on a work copy that reaches the tensors only on
//     success, so they need none). The comm thread then does the unit's
//     accounting under the rank mutex, and the worker unblocks when every
//     registered gradient is reduced, applies the optimizer, and starts
//     the next iteration.
//
// Failure semantics (paper §IV reliability posture, made real): when a
// FailureConfig enables detection, each rank's comm side also runs a heartbeat
// thread on a reserved tag channel of the wire beneath the reliable layer
// (beats are datagrams: gaps are fine, silence is not). A peer that misses its
// heartbeat deadline — or a collective receive that misses the configured
// per-message deadline — aborts the engine: every in-flight collective returns
// kDeadlineExceeded/kUnavailable instead of hanging, WaitIteration surfaces the
// abort Status to the caller, and SuspectedRanks() names the peers that went
// silent so a trainer can rebuild over the survivors (trainer/recovery.h).
//
// Everything is real: payloads, reductions, queues, thread concurrency. The
// integration tests train a real MLP through this engine and require exact
// agreement with sequential full-batch training.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/sync.h"

#include "common/bitvector.h"
#include "common/queues.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/optimizer.h"
#include "core/packing.h"
#include "core/registry.h"
#include "core/scheduler.h"
#include "telemetry/metrics.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"
#include "transport/tracing.h"

namespace aiacc::core {

/// Failure-detection and fault-injection knobs. The default (all off) is
/// the original engine: infinite patience, no extra threads.
struct FailureConfig {
  /// Run per-rank heartbeat threads and abort when a peer goes silent.
  bool detect_failures = false;
  double heartbeat_interval_ms = 5.0;
  /// A peer is suspected after this long without a heartbeat. Must cover
  /// many intervals so sporadic heartbeat loss is not a false positive.
  double heartbeat_timeout_ms = 300.0;
  /// Per-message deadline for engine collectives (<= 0 = block forever).
  /// The backstop that turns a wedged collective into an abort even when
  /// heartbeat detection is off.
  std::int64_t collective_timeout_ms = 0;
  /// When set, all engine traffic runs through a seeded FaultyTransport,
  /// always under a ReliableTransport: the reliable layer sequences, dedups
  /// and CRC-checks every collective frame, so a faulty channel yields the
  /// exact stream or a non-OK status. Heartbeats run on the faulty wire
  /// itself, beneath the reliable layer.
  std::optional<transport::FaultSpec> faults;

  /// Tier 1 of the fault story: the reliable layer also retransmits, so
  /// dropped and corrupted frames are repaired in-band instead of surfacing
  /// as collective deadline failures. Off ("tier 1 off") with `faults` set,
  /// the engine passes `reliable_options` with the first resend past
  /// `message_deadline_ms`, so the layer never resends and a drop becomes
  /// the receiver's deadline. Without `faults`, on stacks the reliable
  /// layer over the clean wire and off stacks none.
  bool reliable_transport = false;
  transport::ReliableOptions reliable_options;

  /// Tier 2: on a failed unit all-reduce, retry the unit in-band on a
  /// fresh tag epoch at pipeline depth 1 (at most kMaxUnitRetries = 2
  /// times, threaded_engine.cpp) instead of aborting straight to checkpoint
  /// recovery. Symmetric by
  /// construction: a unit collective that fails on one rank fails on all
  /// (same ring), so every rank retries in lockstep. It also decides
  /// whether a unit is staged: a retry must rerun from the pre-ring bytes,
  /// so with it on a unit is gathered into pooled staging just before its
  /// first ring attempt; with it off the ring reads the tensors directly.
  /// Sparse-codec units are never staged, and a hierarchical unit only
  /// when its attempt 0 fails into a ring retry: those attempts reduce a
  /// fresh work copy of the tensors, which they write back only on
  /// success.
  bool degrade_before_abort = false;
};

class ThreadedAiaccEngine {
 public:
  /// Point-in-time statistics for one rank. The live values are telemetry
  /// counters in the engine's metrics registry (`engine.*@r<rank>`),
  /// written concurrently by three different threads — the MPI-process loop
  /// (sync_rounds), the comm-stream workers (units_reduced, bytes_reduced),
  /// and the caller's worker thread (iterations); stats() snapshots them at
  /// any time.
  struct RankStats {
    std::uint64_t sync_rounds = 0;
    std::uint64_t units_reduced = 0;
    std::uint64_t bytes_reduced = 0;
    std::uint64_t iterations = 0;
  };

  ThreadedAiaccEngine(int world_size, CommConfig config,
                      FailureConfig failure = {});
  ~ThreadedAiaccEngine();
  ThreadedAiaccEngine(const ThreadedAiaccEngine&) = delete;
  ThreadedAiaccEngine& operator=(const ThreadedAiaccEngine&) = delete;

  /// Per-rank handle used from that rank's worker thread.
  class Worker {
   public:
    /// Register a named gradient tensor (the engine keeps the span and
    /// writes the averaged values into it). All ranks must register the
    /// same names/sizes. Call before Finalize.
    Status Register(const std::string& name, std::span<float> tensor);

    /// Finish registration (collective: blocks until every rank finalized).
    void Finalize();

    /// Optimizer/comm overlap: bind an optimizer so the engine applies
    /// `StepTensor` for each parameter the moment its gradient's collective
    /// completes, hiding the optimizer under the tail collectives instead
    /// of running it barriered after WaitIteration. Numerically identical
    /// to the barriered flow (see core/optimizer.h). Every registered
    /// gradient must get a parameter via BindParameter. The optimizer must
    /// outlive the engine; `lr` applies until SetLearningRate. Call before
    /// Finalize.
    void BindOptimizer(Optimizer* optimizer, double lr);

    /// Bind the parameter tensor updated by gradient `name` (same element
    /// count). Call after Register(name, ...), before Finalize.
    void BindParameter(const std::string& name, std::span<float> param);

    /// Update the learning rate the engine-applied optimizer uses from the
    /// next completed gradient on. Call between WaitIteration and the next
    /// iteration's pushes (the classic per-iteration schedule point).
    void SetLearningRate(double lr);

    /// Block until gradient `name` is fully averaged this iteration (and,
    /// with a bound optimizer, its parameter stepped) — the next forward
    /// pass's layer-wise consumption point, which is what makes priority
    /// dispatch pay off: front layers unblock without waiting for the
    /// iteration tail. Ok on completion; the abort Status on engine death.
    [[nodiscard]] Status WaitGradient(const std::string& name);

    /// Announce that the gradient `name` has been (re)computed for this
    /// iteration. The tensor contents are read and then overwritten with
    /// the average asynchronously afterwards — do not touch them until
    /// WaitGradient(name) or WaitIteration returns. After pushing every
    /// gradient of the iteration, call FlushIteration.
    void Push(const std::string& name);

    /// Mark the end of this iteration's gradient production (the paper's
    /// end-of-backward signal). Required before WaitIteration.
    void FlushIteration();

    /// Convenience: push every registered gradient and flush in one queue
    /// operation, so the MPI process agrees on all of them in a single sync
    /// round.
    void PushAll();

    /// Block until every registered gradient has been averaged across all
    /// ranks (then the optimizer may run and the next iteration start).
    /// Returns Ok on completion, or the engine's abort Status when a peer
    /// failure / deadline cut the iteration short — the tensors are then in
    /// an unspecified state, no comm stream touches them any more, and the
    /// engine is dead (rebuild to recover).
    [[nodiscard]] Status WaitIteration();

    [[nodiscard]] int rank() const noexcept { return rank_; }
    [[nodiscard]] RankStats stats() const noexcept;
    /// Dispatch counters of this rank's ready-set scheduler (pops,
    /// priority pops, inversions, aged pops).
    [[nodiscard]] SchedulerStats scheduler_stats() const;

   private:
    friend class ThreadedAiaccEngine;
    Worker(ThreadedAiaccEngine* engine, int rank);

    ThreadedAiaccEngine* engine_;
    int rank_;
    // Cached handles into the engine's registry (rank-scoped names);
    // registration happens once here, every increment is a relaxed add.
    telemetry::Counter* sync_rounds_;
    telemetry::Counter* sync_payload_floats_;  // bit-packed words per round
    telemetry::Counter* units_reduced_;
    telemetry::Counter* bytes_reduced_;
    telemetry::Counter* iterations_;
    telemetry::Histogram* unit_latency_;  // seconds per reduced unit
  };

  [[nodiscard]] Worker& worker(int rank) {
    return *workers_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] int world_size() const noexcept { return world_size_; }

  /// This engine's metrics surface: per-rank `engine.*@r<n>` counters and
  /// unit-latency histograms. Per-instance (not the process Global()) so
  /// stats are exact per engine lifetime; Snapshot().Aggregate() merges the
  /// rank scopes.
  [[nodiscard]] telemetry::MetricsRegistry& metrics() noexcept {
    return metrics_;
  }

  /// Stop the communication threads (also done by the destructor).
  void Shutdown();

  /// Ok while healthy; the first abort Status afterwards.
  [[nodiscard]] Status health() const;
  [[nodiscard]] bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }
  /// Ranks that went silent (heartbeat verdicts), sorted. A crashed rank
  /// reports itself as isolated, so survivors and the victim agree on the
  /// same set.
  [[nodiscard]] std::vector<int> SuspectedRanks() const;

  /// The injector when FailureConfig::faults is set (tests poke it to
  /// crash ranks mid-run); nullptr otherwise.
  [[nodiscard]] transport::FaultyTransport* fault_injector() noexcept {
    return faulty_.get();
  }

  /// The reliable layer when FailureConfig::faults or reliable_transport
  /// is set (tests read its retransmit/CRC stats); nullptr otherwise.
  [[nodiscard]] transport::ReliableTransport* reliable_layer() noexcept {
    return reliable_.get();
  }

  /// The tracing layer when the global tracer was on at construction
  /// (tests read its stamp/strip stats); nullptr otherwise.
  [[nodiscard]] transport::TracingTransport* tracing_layer() noexcept {
    return tracing_.get();
  }

 private:
  struct RankState {
    // Registration (worker thread only, until finalized; immutable once the
    // service loops start).
    std::vector<std::pair<std::string, std::span<float>>> pending_reg;  // NOLOCK(registration phase only)
    GradientRegistry registry;              // NOLOCK(frozen before service threads start)
    std::vector<std::span<float>> tensors;  // NOLOCK(frozen before service threads start)
    // Error-feedback residual shadow tensors, one per gradient when the
    // engine codec uses error feedback (empty otherwise). Each comm stream
    // touches only its unit's segments — units partition gradient bytes
    // disjointly — and a failed attempt re-gathers from here, so retries
    // never double-apply the residual.
    std::vector<std::vector<float>> residuals;  // NOLOCK(comm streams access disjoint unit segments; a commit happens-before the next gather via mu)
    // Every gradient id then kFlush: PushAll's one queue batch.
    std::vector<int> push_all_batch;  // NOLOCK(frozen before service threads start)

    // Optimizer/comm overlap (Worker::BindOptimizer): the comm streams
    // apply StepTensor under `mu` the moment a gradient completes, so the
    // optimizer runs hidden under the remaining collectives. Pointers and
    // spans freeze at Finalize; only `lr` changes afterwards (under mu).
    Optimizer* optimizer = nullptr;  // NOLOCK(frozen before service threads start)
    std::vector<std::pair<std::string, std::span<float>>> pending_params;  // NOLOCK(registration phase only)
    std::vector<std::span<float>> params;  // NOLOCK(frozen before service threads start)

    // Gradient message queue worker -> MPI process. Ids >= 0; kFlush ends
    // an iteration's production.
    std::unique_ptr<BoundedQueue<int>> queue;  // NOLOCK(set in ctor; queue is internally synchronized)

    // Completion signalling (MPI process -> worker).
    common::Mutex mu{"engine-rank-state", common::lock_rank::kEngineState};
    common::CondVar cv;
    bool iteration_done GUARDED_BY(mu) = false;
    double lr GUARDED_BY(mu) = 0.0;  // engine-applied optimizer step size

    // Priority ready-set feeding the communication streams (replaces the
    // old FIFO unit queue; core/scheduler.h has the dispatch rules and the
    // cross-rank deadlock-freedom argument).
    std::unique_ptr<ReadySetScheduler> scheduler;  // NOLOCK(set in ctor; internally synchronized)
    // Gradients not yet fully reduced this iteration; re-armed when the
    // iteration closes. A comm stream writes a unit's tensor bytes (outside
    // mu, during its ring) before decrementing this under mu, in the same
    // critical section as the unit's reduced_bytes accounting, so the MPI
    // process's end-of-iteration wait (which tests it under mu) can never
    // miss the last decrement's notify, and every waiter that sees the
    // count also sees the bytes.
    int gradients_remaining GUARDED_BY(mu) = 0;
    // Units a comm stream has popped and not yet accounted for: their ring
    // may still read or write the tensors. After an abort, WaitIteration
    // and WaitGradient return only once this drains to 0.
    int units_in_flight GUARDED_BY(mu) = 0;
    std::vector<std::size_t> reduced_bytes GUARDED_BY(mu);

    // Tag-epoch per unit id (tier 2 retries): bumped on every failed
    // attempt so a retry never reuses a tag channel that may still hold
    // stale half-ring messages from the failed attempt. Persistent across
    // iterations for the same reason (unit ids recur each iteration).
    // Failures are symmetric across ranks, so per-rank maps stay in
    // lockstep without coordination.
    std::map<std::uint64_t, int> unit_tag_epoch GUARDED_BY(mu);
  };

  static constexpr int kFlush = -1;

  void MpiProcessLoop(int rank);
  void CommThreadLoop(int rank, int stream_index);
  /// Service task dumping the engine registry every AIACC_METRICS_PERIOD_MS
  /// (only started when the env var is set). Sleeps in short slices so
  /// Shutdown is never delayed by a full period.
  void MetricsDumpLoop();
  /// `sync_scratch` is the caller's reusable bit-vector buffer (one per MPI
  /// process loop) so steady-state iterations allocate nothing.
  void RunIterationProtocol(int rank, std::vector<float>& sync_scratch);
  void HeartbeatLoop(int rank);
  /// Record the first failure, remember the suspects, and wake every
  /// blocked thread with an error. Never joins (callable from engine
  /// threads); Shutdown() still does the joining.
  void Abort(Status status, std::vector<int> suspected);
  /// Collective returned non-OK: normal teardown is silent, anything else
  /// aborts the engine.
  void HandleCollectiveFailure(int rank, const Status& status);

  const int world_size_;
  const CommConfig config_;
  const FailureConfig failure_;
  const int metrics_dump_period_ms_;  // 0 = no periodic dump task
  // Declared before workers_: Worker constructors register their handles.
  telemetry::MetricsRegistry metrics_;  // NOLOCK(internally synchronized)
  // All engine service loops (MPI processes, communication streams,
  // heartbeats) run as long-lived tasks on this pool instead of per-rank
  // raw threads. It is sized in the constructor for the exact task count —
  // the loops block on each other across ranks, so every task must hold a
  // worker for the engine to make progress. Destroying the pool (Shutdown)
  // joins everything; Abort only signals and never joins.
  std::unique_ptr<ThreadPool> service_pool_;  // NOLOCK(set in ctor, reset only by the one Shutdown winner)
  transport::InProcTransport inproc_;         // NOLOCK(internally synchronized)
  std::unique_ptr<transport::FaultyTransport> faulty_;  // NOLOCK(set in ctor only)
  std::unique_ptr<transport::ReliableTransport> reliable_;  // NOLOCK(set in ctor only)
  std::unique_ptr<transport::TracingTransport> tracing_;  // NOLOCK(set in ctor only)
  transport::Transport* transport_;  // NOLOCK(set in ctor; topmost decorator of the inproc -> faulty -> reliable -> tracing stack)
  telemetry::Counter* unit_retries_;   // NOLOCK(set in ctor only)
  std::vector<std::unique_ptr<Worker>> workers_;  // NOLOCK(sized in ctor, never resized)
  std::vector<std::unique_ptr<RankState>> ranks_; // NOLOCK(sized in ctor, never resized)
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> aborted_{false};
  mutable common::Mutex abort_mu_{"engine-abort",
                                  common::lock_rank::kEngineAbort};
  Status abort_status_ GUARDED_BY(abort_mu_);
  std::vector<int> suspected_ GUARDED_BY(abort_mu_);  // sorted unique
  std::atomic<int> finalized_count_{0};
  common::Mutex finalize_mu_{"engine-finalize",
                             common::lock_rank::kEngineState};
  common::CondVar finalize_cv_;
};

}  // namespace aiacc::core
