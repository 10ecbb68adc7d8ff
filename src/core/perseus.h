// Perseus: AIACC-Training's unified, Horovod-compatible programming
// interface (paper §IV). This is the public API an application links
// against; the quickstart example ports a sequential training loop to it by
// changing only the communicator construction — the Horovod-style porting
// story the paper automates with its source-to-source translator.
//
// This facade drives the *threaded* backend: every rank is a real thread and
// gradient aggregation runs through the real multi-channel ring collectives.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "collective/threaded.h"
#include "common/status.h"
#include "core/optimizer.h"
#include "transport/inproc.h"

namespace aiacc::perseus {

/// Shared state for one "job" (all ranks in-process).
class Context {
 public:
  explicit Context(int world_size)
      : transport_(world_size), world_size_(world_size) {}

  [[nodiscard]] int world_size() const noexcept { return world_size_; }
  [[nodiscard]] transport::InProcTransport& transport() noexcept {
    return transport_;
  }

 private:
  transport::InProcTransport transport_;
  int world_size_;
};

/// Per-rank session (Horovod: hvd.init/rank/size/allreduce/broadcast...).
class Session {
 public:
  Session(std::shared_ptr<Context> context, int rank);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return context_->world_size(); }

  /// In-place averaged all-reduce over all ranks, using `num_channels`
  /// concurrent communication channels (AIACC's multi-stream setting; 1
  /// behaves like classic Horovod/NCCL).
  void AllReduce(std::span<float> data, int num_channels = 4,
                 collective::ReduceOp op = collective::ReduceOp::kAvg);

  /// All-reduce with fp16 wire compression (paper §IV/§X): every ring hop
  /// ships IEEE binary16 lanes (Comm::codec = fp16) and the reduction
  /// accumulates in fp32. Halves wire traffic at ~2^-11 relative
  /// quantization error per hop.
  void AllReduceFp16(std::span<float> data, int num_channels = 4);

  /// Broadcast tensors from `root` (Horovod's broadcast_parameters; also the
  /// elastic-deployment path that seeds a new worker's parameters).
  void BroadcastParameters(const std::vector<std::span<float>>& params,
                           int root = 0);

  void Barrier();

  /// Aggregate this rank's gradient tensors (averaged across ranks),
  /// checking for NaNs first (§IV debugging support). Returns the NaN report
  /// from the *local* gradients; aggregation proceeds only if clean or
  /// `allow_nan`.
  core::NanReport AllReduceGradients(
      const std::vector<std::span<float>>& grads, int num_channels = 4,
      bool allow_nan = false);

 private:
  void AllReduceWith(std::span<float> data, int num_channels,
                     collective::ReduceOp op, compress::CodecSpec codec);

  std::shared_ptr<Context> context_;
  int rank_;
  int next_tag_ = 0;
};

/// Launch `world_size` rank threads running `body(session)` and join them —
/// the SPMD harness used by examples and tests.
void RunRanks(int world_size,
              const std::function<void(Session&)>& body);

}  // namespace aiacc::perseus
