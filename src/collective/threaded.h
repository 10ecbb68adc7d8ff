// Functional collective algorithms over the real in-process transport.
// One caller thread per rank (SPMD style, like an MPI program). These verify
// the *algorithms* — chunked ring all-reduce, hierarchical all-reduce,
// reduce-scatter/all-gather/broadcast, and the multi-channel variant where a
// rank participates in several concurrent rings (the paper's core idea) —
// with real numerics and real concurrency.
//
// Every operation returns Status: Ok when the collective completed on this
// rank, kDeadlineExceeded when a peer message missed the Comm's deadline
// (crashed peer, dropped message), or kUnavailable when the transport was
// shut down mid-algorithm. On a non-OK return the caller's buffer contents
// are unspecified, but the call itself never hangs (given a deadline) and
// never crashes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "collective/ops.h"
#include "collective/tags.h"
#include "common/buffer_pool.h"
#include "common/status.h"
#include "compress/codec.h"
#include "transport/inproc.h"

namespace aiacc::collective {

/// Upper bound on Comm::pipeline_depth. Keeps the per-ring slice window on
/// the stack (no per-call allocation for the recycled-buffer carry array)
/// and bounds the number of in-flight messages per tag channel.
inline constexpr int kMaxPipelineDepth = 8;

struct Comm {
  transport::Transport* transport = nullptr;
  int rank = 0;
  int world_size = 1;
  /// Tag namespace base; collectives use tags [tag_base, tag_base + steps).
  int tag_base = 0;
  /// Per-message receive deadline in milliseconds; <= 0 blocks forever
  /// (the pre-fault-tolerance behaviour).
  std::int64_t timeout_ms = 0;
  /// Payload-buffer recycler for the hot path (see common/buffer_pool.h).
  /// Must be non-null; a pointer so tests can pass a private pool and count
  /// its misses.
  common::BufferPool* pool = &common::BufferPool::Global();
  /// Ring pipeline depth: each per-step ring chunk is split into this many
  /// slices kept concurrently in flight on the same tag channel, so the
  /// reduce of slice k overlaps the recv-wait of slice k+1 (and all-gather
  /// forwards slices as they land). Results are bit-identical at every
  /// depth — slicing never changes which chunk an element reduces in, only
  /// how much of a step is in flight at once. Values are clamped to
  /// [1, kMaxPipelineDepth], and each ring further clamps its *effective*
  /// depth to its chunk size so a slice is never empty; depth 1 is exactly
  /// the unpipelined schedule.
  int pipeline_depth = 1;
  /// Wire codec for the all-reduce family (src/compress/codec.h). Cast
  /// codecs (fp16/bf16) fuse into the sliced ring phases — every hop ships
  /// packed 16-bit lanes, the receiver decodes into pooled scratch, reduces,
  /// and re-encodes, so the encode of slice k overlaps the recv of slice
  /// k+1 exactly like the uncompressed pipeline. Sparse codecs (1-bit,
  /// top-k) reroute RingAllReduce/HierarchicalAllReduce through
  /// CompressedAllReduce. kNone (the default) is the raw-fp32 wire.
  /// Constraints: a codec must never carry ReduceOp::kBitAnd traffic (the
  /// bit-packed sync rounds are exact agreements), and standalone
  /// ReduceScatter/AllGather/point-to-point ops always ship raw fp32.
  compress::CodecSpec codec{};
  /// Cooperative slice-yield hook. When set, the pipelined ring phases
  /// invoke it between slice iterations so a long bulk transfer can give
  /// up transport bandwidth to a newly-ready urgent unit on another stream
  /// (the engine parks this thread briefly when the ready set holds a more
  /// urgent unit). Timing-only: the yield never changes which slice any
  /// element reduces in, so results stay bit-identical with or without it.
  void (*slice_yield)(void* ctx) = nullptr;
  void* slice_yield_ctx = nullptr;
};

/// Classic chunked ring all-reduce: reduce-scatter then all-gather, 2(n-1)
/// point-to-point steps per rank. In-place on `data`; every rank must pass
/// equally-sized buffers. Blocking; call from all ranks concurrently.
Status RingAllReduce(const Comm& comm, std::span<float> data, ReduceOp op);

/// Sparse-codec all-reduce (comm.codec must be kOneBit or kTopK; op kSum or
/// kAvg): every rank encodes its gradient once, the n variable-length
/// compressed records circulate around the ring (an all-gather of records),
/// and every rank decode-accumulates them in rank order 0..n-1 — the same
/// float-add order everywhere, so replicas are bit-identical. `residual` is
/// the per-tensor error-feedback accumulator (same length as `data`, or
/// empty to disable EF): the previous step's quantization error is folded
/// into `data` before encoding and the new error
/// (compensated - decode(own record)) is written back — locally, with no
/// extra wire traffic. Wire cost per rank: n-1 sends of ~MaxWireFloats
/// instead of 2(n-1) chunk payloads, a >10x byte cut at 1% top-k density.
Status CompressedAllReduce(const Comm& comm, std::span<float> data,
                           ReduceOp op, std::span<float> residual);

/// Hierarchical all-reduce: ring within each host group of `gpus_per_host`
/// consecutive ranks, ring across group leaders, broadcast within groups
/// (the paper's "tree all-reduce", §V-B).
Status HierarchicalAllReduce(const Comm& comm, int gpus_per_host,
                             std::span<float> data, ReduceOp op);

/// Reduce-scatter: after the call, rank r holds the reduction of chunk r in
/// data[chunk_begin(r) .. chunk_end(r)); other regions are scratch.
Status ReduceScatter(const Comm& comm, std::span<float> data, ReduceOp op);

/// All-gather assuming rank r holds valid chunk r (the state ReduceScatter
/// leaves behind); fills every chunk on every rank.
Status AllGather(const Comm& comm, std::span<float> data);

/// Broadcast from `root` (ring pipeline).
Status Broadcast(const Comm& comm, int root, std::span<float> data);

/// Reduce to `root` only: after the call root holds op(all ranks' data);
/// other ranks' buffers are unchanged. (Chain reduction along the ring —
/// the building block of parameter-server push aggregation.)
Status Reduce(const Comm& comm, int root, std::span<float> data, ReduceOp op);

/// Gather: root receives every rank's `contribution` into `gathered`
/// (world_size * contribution.size(), rank-major). Non-root ranks may pass
/// an empty `gathered`. The root drains peers in *completion order* (a
/// TryRecv sweep with a short blocking fallback), so one slow rank no
/// longer serializes the ranks behind it in the fixed rank-order scan.
/// Caveat: the sweep uses TryRecv, which a FaultyTransport relaxes to
/// datagram semantics — do not run Gather over a *lossy* decorated channel
/// (lossless fault specs are fine; transport/faulty.h explains the mix).
Status Gather(const Comm& comm, int root, std::span<const float> contribution,
              std::span<float> gathered);

/// Scatter: root distributes `scattered` (world_size * chunk.size(),
/// rank-major) so each rank receives its chunk. Non-root ranks may pass an
/// empty `scattered`.
Status Scatter(const Comm& comm, int root, std::span<const float> scattered,
               std::span<float> chunk);

/// All-to-all personalized exchange: `send` and `recv` are world_size
/// equal-sized blocks; block d of `send` goes to rank d, and block s of
/// `recv` comes from rank s. (The exchange pattern of sparse/embedding
/// workloads the paper's Discussion section points at.)
Status AllToAll(const Comm& comm, std::span<const float> send,
                std::span<float> recv);

/// Multi-channel all-reduce: slices `data` into `num_channels` contiguous
/// pieces and runs an independent ring per slice on its own tag namespace
/// (ChannelTagBase) — a rank participates in `num_channels` all-reduce
/// operations simultaneously, the threaded analogue of AIACC's
/// multi-streamed communication. Channel 0 runs on the calling thread; the
/// rest run on a persistent process-wide worker pool that grows to peak
/// demand and is reused across invocations (no thread is ever spawned per
/// call). Returns the first non-OK channel status.
Status MultiChannelAllReduce(const Comm& comm, std::span<float> data,
                             ReduceOp op, int num_channels);

/// Current size of the persistent multi-channel worker pool (0 until the
/// first multi-channel call). Exposed so tests can assert that repeated
/// invocations reuse workers instead of spawning threads per call.
int MultiChannelWorkerCount();

/// Chunk boundaries used by ring collectives (also exposed for tests):
/// chunk c of n covers [ChunkBegin(len,n,c), ChunkBegin(len,n,c+1)).
std::size_t ChunkBegin(std::size_t len, int n_chunks, int chunk);

}  // namespace aiacc::collective
