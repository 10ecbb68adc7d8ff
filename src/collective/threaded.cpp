#include "collective/threaded.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/logging.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace aiacc::collective {
namespace {

using compress::CodecKind;

/// The Comm's payload pool; every collective requires one.
common::BufferPool& PoolOf(const Comm& comm) {
  AIACC_CHECK(comm.pool != nullptr);
  return *comm.pool;
}

/// Receive honouring the Comm deadline (<= 0 blocks forever).
Result<transport::Payload> TimedRecv(transport::Transport& tr,
                                     std::int64_t timeout_ms, int rank,
                                     int src, int tag) {
  if (timeout_ms > 0) {
    return tr.RecvFor(rank, src, tag, std::chrono::milliseconds(timeout_ms));
  }
  return tr.Recv(rank, src, tag);
}

Status CheckSize(const transport::Payload& received, std::size_t expected) {
  if (received.size() != expected) {
    return Internal("collective payload size mismatch: got " +
                    std::to_string(received.size()) + ", want " +
                    std::to_string(expected));
  }
  return Status::Ok();
}

/// A send buffer of `n` floats: recycles `reuse` — typically the payload
/// received on the previous ring step — and falls back to the pool when its
/// capacity is too small.
transport::Payload SendBuffer(common::BufferPool& pool,
                              transport::Payload reuse, std::size_t n) {
  if (reuse.capacity() >= n) {
    reuse.resize(n);
    return reuse;
  }
  if (reuse.capacity() > 0) pool.Release(std::move(reuse));
  return pool.Acquire(n);
}

/// Copy `src` into a send buffer (see SendBuffer).
transport::Payload FillSendBuffer(common::BufferPool& pool,
                                  transport::Payload reuse,
                                  std::span<const float> src) {
  transport::Payload out = SendBuffer(pool, std::move(reuse), src.size());
  std::copy(src.begin(), src.end(), out.begin());
  return out;
}

/// Hand a finished payload back to the pool.
void ReleasePayload(common::BufferPool& pool, transport::Payload&& payload) {
  if (payload.capacity() > 0) pool.Release(std::move(payload));
}

/// Cast-encode `src` into a send buffer of CastWireFloats(src.size()) wire
/// words — the codec twin of FillSendBuffer.
transport::Payload FillSendEncoded(common::BufferPool& pool,
                                   transport::Payload reuse,
                                   std::span<const float> src,
                                   CodecKind wire) {
  transport::Payload out = SendBuffer(pool, std::move(reuse),
                                      compress::CastWireFloats(src.size()));
  compress::CastEncode(wire, src, out);
  return out;
}

/// Gauge of slice messages currently in flight across every pipelined ring
/// in the process (sender +1 on Send, receiver -1 on delivery). Cached so the
/// hot path pays one static-init guard check, not a registry lookup; only
/// touched when the effective depth exceeds 1 so the depth-1 hot path pays
/// no shared-cacheline traffic for it.
telemetry::Gauge& InflightSlicesGauge() {
  static telemetry::Gauge& gauge =
      telemetry::MetricsRegistry::Global().GetGauge("hotpath.inflight_slices");
  return gauge;
}

/// The recycled send buffers of one pipelined ring: slot k carries slice
/// k's payload between steps. Fixed-size so a collective call never heap-
/// allocates for its bookkeeping (default-constructed Payloads own nothing).
using SliceWindow = std::array<transport::Payload, kMaxPipelineDepth>;

void ReleaseWindow(common::BufferPool& pool, SliceWindow& window) {
  for (transport::Payload& p : window) ReleasePayload(pool, std::move(p));
}

/// Effective pipeline depth for a ring of `n` ranks over `len` elements.
/// Every chunk holds at least len/n (floor) elements and slices split a
/// chunk the same way chunks split the buffer, so capping the depth at
/// len/n guarantees every slice of every chunk is non-empty. Computed from
/// globally-agreed values only (all ranks derive the identical schedule);
/// depth 1 — always the result for len < 2n — is exactly the unpipelined
/// message order.
int EffectivePipelineDepth(std::size_t len, int n, int requested) {
  const std::size_t per_chunk = len / static_cast<std::size_t>(n);
  const int cap = static_cast<int>(
      std::min<std::size_t>(per_chunk, kMaxPipelineDepth));
  return std::clamp(requested, 1, std::max(1, cap));
}

/// Slice k of d within a ring chunk (second-level ChunkBegin split).
std::span<float> SliceOf(std::span<float> chunk, int d, int k) {
  const std::size_t b = ChunkBegin(chunk.size(), d, k);
  return chunk.subspan(b, ChunkBegin(chunk.size(), d, k + 1) - b);
}

/// Reduce-scatter phase of a ring, sliced `d` deep: step s sends
/// chunk(start - s) and folds the received slices into chunk(start - s - 1).
/// The prologue puts all d slices of chunk(start) in flight on the same tag
/// channel; from then on the reduce of slice k overlaps the recv-wait of
/// slice k+1, and each just-reduced slice goes straight back on the wire as
/// the next step's send. Every rank emits sends in the identical global
/// order (step-major, slice-minor), so per-(src,tag) FIFO matching is
/// preserved at any depth, and slicing never changes which step an element
/// reduces in — results are bit-identical to d = 1.
///
/// Buffer lifecycle: the payload received for slice k is refilled with the
/// next step's slice k (its contents were already folded into `data`) and
/// resent; the last step's payloads are parked in `carry[k]` for the
/// all-gather prologue to reuse. Callers must ensure
/// n > 1 and that d came from EffectivePipelineDepth (no empty slices).
///
/// With a cast codec (`wire` != kNone) every hop ships packed 16-bit lanes:
/// the received slice decodes into `scratch` (caller-provided, at least one
/// chunk long), folds into `data`, and the just-reduced slice re-encodes
/// into the received payload before going back on the wire — so the encode
/// of slice k overlaps the recv-wait of slice k+1 exactly like the
/// uncompressed pipeline, at half the bytes per hop.
template <typename ChunkFn>
Status PipelinedReduceScatterPhase(transport::Transport& tr, int me, int next,
                                   int prev, int n, ChunkFn&& chunk, int start,
                                   ReduceOp op, int tag,
                                   std::int64_t timeout_ms,
                                   common::BufferPool& pool, int d,
                                   SliceWindow& carry, CodecKind wire,
                                   std::span<float> scratch) {
  AIACC_TRACE_SPAN("comm.phase", "reduce-scatter");
  const bool pipelined = d > 1;
  const bool encoded = wire != CodecKind::kNone;
  std::span<float> first = chunk(start);
  for (int k = 0; k < d; ++k) {
    AIACC_TRACE_SPAN_V("comm.step", "send");
    std::span<float> slice = SliceOf(first, d, k);
    auto reuse = std::move(carry[static_cast<std::size_t>(k)]);
    tr.Send(me, next, tag,
            encoded ? FillSendEncoded(pool, std::move(reuse), slice, wire)
                    : FillSendBuffer(pool, std::move(reuse), slice));
    carry[static_cast<std::size_t>(k)] = transport::Payload();
    if (pipelined) InflightSlicesGauge().Add(1);
  }
  for (int s = 0; s < n - 1; ++s) {
    std::span<float> target = chunk(start - s - 1);
    for (int k = 0; k < d; ++k) {
      Result<transport::Payload> received = [&] {
        AIACC_TRACE_SPAN_V("comm.step", "recv-wait");
        return TimedRecv(tr, timeout_ms, me, prev, tag);
      }();
      if (!received.ok()) return received.status();
      if (pipelined) InflightSlicesGauge().Add(-1);
      std::span<float> slice = SliceOf(target, d, k);
      if (encoded) {
        AIACC_TRACE_SPAN_V("comm.step", "reduce");
        AIACC_RETURN_IF_ERROR(
            CheckSize(*received, compress::CastWireFloats(slice.size())));
        std::span<float> decoded = scratch.first(slice.size());
        compress::CastDecode(wire, *received, decoded, slice.size());
        Accumulate(slice, decoded, op);
      } else {
        AIACC_TRACE_SPAN_V("comm.step", "reduce");
        AIACC_RETURN_IF_ERROR(RecvReduce(slice, *received, op));
      }
      if (s + 1 < n - 1) {
        AIACC_TRACE_SPAN_V("comm.step", "send");
        tr.Send(me, next, tag,
                encoded
                    ? FillSendEncoded(pool, std::move(*received), slice, wire)
                    : FillSendBuffer(pool, std::move(*received), slice));
        if (pipelined) InflightSlicesGauge().Add(1);
      } else {
        carry[static_cast<std::size_t>(k)] = std::move(*received);
      }
    }
  }
  return Status::Ok();
}

/// All-gather phase of a ring, sliced `d` deep: step s sends chunk(start - s)
/// and fills chunk(start - s - 1) from the wire, forwarding each slice the
/// moment it lands instead of waiting for the whole chunk. The prologue
/// refills `carry` from `data` (the reduce-scatter results live in `data`,
/// not in the parked buffers) and every later step forwards the received
/// payload unmodified — its contents are exactly the slice the next
/// step sends. Same send-order/bit-exactness guarantees as the reduce-
/// scatter phase; callers must ensure n > 1 and d from
/// EffectivePipelineDepth.
/// With a cast codec the prologue encodes each owned slice and immediately
/// decodes the encoding *back into the slice* (owner self-roundtrip): the
/// chunk owner would otherwise keep its unquantized values while every
/// other rank holds the decoded wire form, and replicas would diverge
/// bitwise. Received slices decode in place and the payload is forwarded
/// unmodified — its contents are already the encoded slice the next hop
/// expects.
template <typename ChunkFn>
Status PipelinedAllGatherPhase(transport::Transport& tr, int me, int next,
                               int prev, int n, ChunkFn&& chunk, int start,
                               int tag, std::int64_t timeout_ms,
                               common::BufferPool& pool, int d,
                               SliceWindow& carry, CodecKind wire) {
  AIACC_TRACE_SPAN("comm.phase", "all-gather");
  const bool pipelined = d > 1;
  const bool encoded = wire != CodecKind::kNone;
  std::span<float> first = chunk(start);
  for (int k = 0; k < d; ++k) {
    AIACC_TRACE_SPAN_V("comm.step", "send");
    std::span<float> slice = SliceOf(first, d, k);
    auto reuse = std::move(carry[static_cast<std::size_t>(k)]);
    if (encoded) {
      transport::Payload out =
          FillSendEncoded(pool, std::move(reuse), slice, wire);
      compress::CastDecode(wire, out, slice, slice.size());
      tr.Send(me, next, tag, std::move(out));
    } else {
      tr.Send(me, next, tag, FillSendBuffer(pool, std::move(reuse), slice));
    }
    carry[static_cast<std::size_t>(k)] = transport::Payload();
    if (pipelined) InflightSlicesGauge().Add(1);
  }
  for (int s = 0; s < n - 1; ++s) {
    std::span<float> target = chunk(start - s - 1);
    for (int k = 0; k < d; ++k) {
      Result<transport::Payload> received = [&] {
        AIACC_TRACE_SPAN_V("comm.step", "recv-wait");
        return TimedRecv(tr, timeout_ms, me, prev, tag);
      }();
      if (!received.ok()) return received.status();
      if (pipelined) InflightSlicesGauge().Add(-1);
      std::span<float> slice = SliceOf(target, d, k);
      if (encoded) {
        AIACC_RETURN_IF_ERROR(
            CheckSize(*received, compress::CastWireFloats(slice.size())));
        compress::CastDecode(wire, *received, slice, slice.size());
      } else {
        AIACC_RETURN_IF_ERROR(CheckSize(*received, slice.size()));
        std::copy(received->begin(), received->end(), slice.begin());
      }
      if (s + 1 < n - 1) {
        AIACC_TRACE_SPAN_V("comm.step", "send");
        tr.Send(me, next, tag, std::move(*received));
        if (pipelined) InflightSlicesGauge().Add(1);
      } else {
        carry[static_cast<std::size_t>(k)] = std::move(*received);
      }
    }
  }
  return Status::Ok();
}

/// Ring all-reduce over an arbitrary ordered set of global ranks.
/// `op` must not be kAvg (callers finalize averaging themselves so that
/// hierarchical composition divides exactly once). `pipeline_depth` slices
/// each per-step chunk (see Comm::pipeline_depth); the reduce-scatter
/// phase's parked buffers seed the all-gather prologue, so at any depth the
/// steady state performs zero payload allocations.
Status RingAllReduceOnRing(transport::Transport& tr,
                           const std::vector<int>& ring, int my_pos,
                           std::span<float> data, ReduceOp op, int tag,
                           std::int64_t timeout_ms, common::BufferPool& pool,
                           int pipeline_depth, CodecKind wire) {
  AIACC_CHECK(op != ReduceOp::kAvg);
  AIACC_CHECK(wire == CodecKind::kNone || compress::IsCast(wire));
  const int n = static_cast<int>(ring.size());
  if (n <= 1) return Status::Ok();
  const int me = ring[static_cast<std::size_t>(my_pos)];
  const int next = ring[static_cast<std::size_t>((my_pos + 1) % n)];
  const int prev = ring[static_cast<std::size_t>((my_pos + n - 1) % n)];
  const std::size_t len = data.size();

  auto chunk = [&](int c) -> std::span<float> {
    const int cc = ((c % n) + n) % n;
    const std::size_t b = ChunkBegin(len, n, cc);
    const std::size_t e = ChunkBegin(len, n, cc + 1);
    return data.subspan(b, e - b);
  };

  const int d = EffectivePipelineDepth(len, n, pipeline_depth);
  // Decode scratch for the cast codec: one chunk is the largest unit any
  // slice decode needs, acquired once per collective (allocation-free in
  // steady state).
  common::BufferPool::Buffer scratch;
  if (wire != CodecKind::kNone) {
    scratch = pool.Acquire((len + static_cast<std::size_t>(n) - 1) /
                           static_cast<std::size_t>(n));
  }
  SliceWindow carry;
  Status status = PipelinedReduceScatterPhase(tr, me, next, prev, n, chunk,
                                              my_pos, op, tag, timeout_ms,
                                              pool, d, carry, wire, scratch);
  // Rank my_pos now owns reduced chunk(my_pos + 1): the all-gather starts
  // there and circulates the fully-reduced chunks around the ring.
  if (status.ok()) {
    status = PipelinedAllGatherPhase(tr, me, next, prev, n, chunk, my_pos + 1,
                                     tag, timeout_ms, pool, d, carry, wire);
  }
  ReleaseWindow(pool, carry);
  ReleasePayload(pool, std::move(scratch));
  return status;
}

Status BroadcastOnRing(transport::Transport& tr, const std::vector<int>& ring,
                       int my_pos, int root_pos, std::span<float> data,
                       int tag, std::int64_t timeout_ms,
                       common::BufferPool& pool,
                       CodecKind wire = CodecKind::kNone) {
  const int n = static_cast<int>(ring.size());
  if (n <= 1) return Status::Ok();
  const bool encoded = wire != CodecKind::kNone;
  const int me = ring[static_cast<std::size_t>(my_pos)];
  const int next = ring[static_cast<std::size_t>((my_pos + 1) % n)];
  const int prev = ring[static_cast<std::size_t>((my_pos + n - 1) % n)];
  const bool is_root = my_pos == root_pos;
  const bool next_is_root = (my_pos + 1) % n == root_pos;
  if (!is_root) {
    auto received = TimedRecv(tr, timeout_ms, me, prev, tag);
    if (!received.ok()) return received.status();
    if (encoded) {
      AIACC_RETURN_IF_ERROR(
          CheckSize(*received, compress::CastWireFloats(data.size())));
      compress::CastDecode(wire, *received, data, data.size());
    } else {
      AIACC_RETURN_IF_ERROR(CheckSize(*received, data.size()));
      std::copy(received->begin(), received->end(), data.begin());
    }
    if (next_is_root) {
      ReleasePayload(pool, std::move(*received));  // end of the pipeline
    } else {
      // Forward the received payload unmodified (its contents are exactly
      // what the next hop expects, encoded or raw).
      tr.Send(me, next, tag, std::move(*received));
    }
    return Status::Ok();
  }
  if (encoded) {
    // Root self-roundtrip: the broadcast result on every rank must be the
    // decoded wire form, including on the root itself.
    transport::Payload out = FillSendEncoded(pool, {}, data, wire);
    compress::CastDecode(wire, out, data, data.size());
    if (!next_is_root) {
      tr.Send(me, next, tag, std::move(out));
    } else {
      ReleasePayload(pool, std::move(out));
    }
  } else if (!next_is_root) {
    tr.Send(me, next, tag, FillSendBuffer(pool, {}, data));
  }
  return Status::Ok();
}

/// Persistent worker pool shared by every MultiChannelAllReduce invocation
/// in the process. Ring channel tasks *block on each other across ranks*,
/// so the pool grows (never shrinks) to at least the number of channel
/// tasks reserved by all concurrent invocations — the reservation makes the
/// blocked-task set always schedulable (see ThreadPool::EnsureWorkers).
/// Leaked singleton: worker threads may still be draining at static
/// destruction time.
struct ChannelWorkers {
  ThreadPool pool{1};  // NOLOCK(internally synchronized; EnsureWorkers nests under mu)
  common::Mutex mu{"channel-workers", common::lock_rank::kChannelWorkers};
  std::size_t reserved GUARDED_BY(mu) = 0;  // channel tasks of in-flight invocations
};

ChannelWorkers& GlobalChannelWorkers() {
  static ChannelWorkers* workers = new ChannelWorkers();
  return *workers;
}

}  // namespace

std::size_t ChunkBegin(std::size_t len, int n_chunks, int chunk) {
  return len * static_cast<std::size_t>(chunk) /
         static_cast<std::size_t>(n_chunks);
}

Status RingAllReduce(const Comm& comm, std::span<float> data, ReduceOp op) {
  AIACC_CHECK(comm.transport != nullptr);
  // The bit-packed sync rounds are exact agreements — a lossy codec on that
  // traffic would corrupt the protocol, so the combination is forbidden.
  AIACC_CHECK(comm.codec.kind == CodecKind::kNone || op != ReduceOp::kBitAnd);
  if (compress::IsSparse(comm.codec.kind)) {
    return CompressedAllReduce(comm, data, op, {});
  }
  AIACC_TRACE_SPAN("comm", "ring-all-reduce");
  std::vector<int> ring(static_cast<std::size_t>(comm.world_size));
  for (int r = 0; r < comm.world_size; ++r) ring[static_cast<std::size_t>(r)] = r;
  const ReduceOp inner = op == ReduceOp::kAvg ? ReduceOp::kSum : op;
  AIACC_RETURN_IF_ERROR(RingAllReduceOnRing(*comm.transport, ring, comm.rank,
                                            data, inner, comm.tag_base,
                                            comm.timeout_ms, PoolOf(comm),
                                            comm.pipeline_depth,
                                            comm.codec.kind));
  FinalizeAvg(data, comm.world_size, op);
  return Status::Ok();
}

Status CompressedAllReduce(const Comm& comm, std::span<float> data,
                           ReduceOp op, std::span<float> residual) {
  AIACC_CHECK(comm.transport != nullptr);
  AIACC_CHECK(compress::IsSparse(comm.codec.kind));
  AIACC_CHECK(op == ReduceOp::kSum || op == ReduceOp::kAvg);
  AIACC_CHECK(residual.empty() || residual.size() == data.size());
  AIACC_TRACE_SPAN("comm", "compressed-all-reduce");
  const int n = comm.world_size;
  const std::size_t len = data.size();
  common::BufferPool& pool = PoolOf(comm);
  const bool has_ef = !residual.empty();

  // 1. Error-feedback compensation: fold the residual the codec dropped on
  //    previous steps into this step's gradient before encoding.
  if (has_ef) {
    for (std::size_t i = 0; i < len; ++i) data[i] += residual[i];
  }

  // 2. Encode the compensated gradient once (per collective, not per hop).
  transport::Payload own =
      pool.Acquire(compress::MaxWireFloats(comm.codec, len));
  own.resize(compress::SparseEncode(comm.codec, data, own, pool));
  compress::RecordWireFootprint(len, own.size());

  // 3. residual = compensated - decode(own record), computed locally so EF
  //    costs no wire traffic. Updated before the ring so a deterministic
  //    abort mid-collective leaves residuals consistent with what was sent
  //    (callers that retry re-gather residuals from their persistent copy).
  if (has_ef) {
    transport::Payload decoded = pool.Acquire(len);
    std::fill(decoded.begin(), decoded.end(), 0.0f);
    const Status self = compress::SparseDecodeAccumulate(comm.codec, own,
                                                         decoded);
    AIACC_CHECK(self.ok());
    for (std::size_t i = 0; i < len; ++i) residual[i] = data[i] - decoded[i];
    ReleasePayload(pool, std::move(decoded));
  }

  // 4. Ring all-gather of the n variable-length compressed records: step s
  //    forwards the record received on step s-1, so every rank ends holding
  //    all n records. Each rank sends n-1 compressed payloads instead of
  //    2(n-1) raw chunks — the whole wire saving lives here.
  std::vector<transport::Payload> records(static_cast<std::size_t>(n));
  const int me = comm.rank;
  const int next = (me + 1) % n;
  const int prev = (me + n - 1) % n;
  auto release_all = [&](transport::Payload&& own_record) {
    ReleasePayload(pool, std::move(own_record));
    for (transport::Payload& r : records) ReleasePayload(pool, std::move(r));
  };
  if (n > 1) {
    transport::Payload cursor =
        FillSendBuffer(pool, {}, std::span<const float>(own));
    for (int s = 0; s < n - 1; ++s) {
      AIACC_TRACE_SPAN_V("comm.step", "record-hop");
      comm.transport->Send(me, next, comm.tag_base, std::move(cursor));
      auto received = TimedRecv(*comm.transport, comm.timeout_ms, me, prev,
                                comm.tag_base);
      if (!received.ok()) {
        release_all(std::move(own));
        return received.status();
      }
      const int src = (me - s - 1 + n) % n;
      if (s + 1 < n - 1) {
        cursor = FillSendBuffer(pool, {}, std::span<const float>(*received));
      }
      records[static_cast<std::size_t>(src)] = std::move(*received);
    }
  }
  records[static_cast<std::size_t>(me)] = std::move(own);

  // 5. Decode-accumulate in rank order 0..n-1 — the identical float-add
  //    order on every rank, so replicas are bit-identical even though each
  //    rank received the records in a different ring order.
  std::fill(data.begin(), data.end(), 0.0f);
  Status status = Status::Ok();
  for (int r = 0; r < n && status.ok(); ++r) {
    status = compress::SparseDecodeAccumulate(
        comm.codec, records[static_cast<std::size_t>(r)], data);
  }
  for (transport::Payload& r : records) ReleasePayload(pool, std::move(r));
  if (!status.ok()) return status;
  FinalizeAvg(data, n, op);
  return Status::Ok();
}

Status HierarchicalAllReduce(const Comm& comm, int gpus_per_host,
                             std::span<float> data, ReduceOp op) {
  AIACC_CHECK(comm.transport != nullptr);
  AIACC_CHECK(comm.codec.kind == CodecKind::kNone || op != ReduceOp::kBitAnd);
  if (compress::IsSparse(comm.codec.kind)) {
    // Sparse records do not compose with the intra/inter-host ring split
    // (partial sums of decoded records would re-encode lossily per tier);
    // one flat compressed all-reduce ships fewer bytes anyway.
    return CompressedAllReduce(comm, data, op, {});
  }
  AIACC_TRACE_SPAN("comm", "hierarchical-all-reduce");
  AIACC_CHECK(gpus_per_host >= 1);
  AIACC_CHECK(comm.world_size % gpus_per_host == 0);
  const int host = comm.rank / gpus_per_host;
  const int local = comm.rank % gpus_per_host;
  const int num_hosts = comm.world_size / gpus_per_host;
  const ReduceOp inner = op == ReduceOp::kAvg ? ReduceOp::kSum : op;

  // Phase 1: ring all-reduce inside the host group (over NVLink in the
  // paper) — every member ends with the group total.
  std::vector<int> group(static_cast<std::size_t>(gpus_per_host));
  for (int g = 0; g < gpus_per_host; ++g) {
    group[static_cast<std::size_t>(g)] = host * gpus_per_host + g;
  }
  common::BufferPool& pool = PoolOf(comm);
  AIACC_RETURN_IF_ERROR(RingAllReduceOnRing(*comm.transport, group, local,
                                            data, inner, comm.tag_base,
                                            comm.timeout_ms, pool,
                                            comm.pipeline_depth,
                                            comm.codec.kind));

  // Phase 2: group leaders ring all-reduce across hosts.
  if (num_hosts > 1) {
    if (local == 0) {
      std::vector<int> leaders(static_cast<std::size_t>(num_hosts));
      for (int h = 0; h < num_hosts; ++h) {
        leaders[static_cast<std::size_t>(h)] = h * gpus_per_host;
      }
      AIACC_RETURN_IF_ERROR(RingAllReduceOnRing(*comm.transport, leaders,
                                                host, data, inner,
                                                comm.tag_base + 1,
                                                comm.timeout_ms, pool,
                                                comm.pipeline_depth,
                                                comm.codec.kind));
    }
    // Phase 3: leaders broadcast the global result inside their group.
    AIACC_RETURN_IF_ERROR(BroadcastOnRing(*comm.transport, group, local,
                                          /*root_pos=*/0, data,
                                          comm.tag_base + 2,
                                          comm.timeout_ms, pool,
                                          comm.codec.kind));
  }
  FinalizeAvg(data, comm.world_size, op);
  return Status::Ok();
}

Status ReduceScatter(const Comm& comm, std::span<float> data, ReduceOp op) {
  AIACC_CHECK(comm.transport != nullptr);
  const int n = comm.world_size;
  if (n <= 1) {
    FinalizeAvg(data, 1, op);
    return Status::Ok();
  }
  const ReduceOp inner = op == ReduceOp::kAvg ? ReduceOp::kSum : op;
  const int me = comm.rank;
  const int next = (me + 1) % n;
  const int prev = (me + n - 1) % n;
  const std::size_t len = data.size();
  common::BufferPool& pool = PoolOf(comm);
  auto chunk = [&](int c) -> std::span<float> {
    const int cc = ((c % n) + n) % n;
    const std::size_t b = ChunkBegin(len, n, cc);
    return data.subspan(b, ChunkBegin(len, n, cc + 1) - b);
  };
  const int d = EffectivePipelineDepth(len, n, comm.pipeline_depth);
  SliceWindow carry;
  AIACC_RETURN_IF_ERROR(PipelinedReduceScatterPhase(
      *comm.transport, me, next, prev, n, chunk, me, inner, comm.tag_base,
      comm.timeout_ms, pool, d, carry, CodecKind::kNone, {}));
  // Rank r now owns reduced chunk (r + 1) mod n; rotate ownership convention
  // so rank r owns chunk r: one extra pass of the owned chunk to `next`.
  std::span<float> owned = chunk(me + 1);
  comm.transport->Send(me, next, comm.tag_base + 1,
                       FillSendBuffer(pool, std::move(carry[0]), owned));
  carry[0] = transport::Payload();
  auto received = TimedRecv(*comm.transport, comm.timeout_ms, me, prev,
                            comm.tag_base + 1);
  if (!received.ok()) return received.status();
  std::span<float> mine = chunk(me);
  AIACC_RETURN_IF_ERROR(CheckSize(*received, mine.size()));
  std::copy(received->begin(), received->end(), mine.begin());
  ReleasePayload(pool, std::move(*received));
  ReleaseWindow(pool, carry);
  FinalizeAvg(mine, n, op);
  return Status::Ok();
}

Status AllGather(const Comm& comm, std::span<float> data) {
  AIACC_CHECK(comm.transport != nullptr);
  const int n = comm.world_size;
  if (n <= 1) return Status::Ok();
  const int me = comm.rank;
  const int next = (me + 1) % n;
  const int prev = (me + n - 1) % n;
  const std::size_t len = data.size();
  common::BufferPool& pool = PoolOf(comm);
  auto chunk = [&](int c) -> std::span<float> {
    const int cc = ((c % n) + n) % n;
    const std::size_t b = ChunkBegin(len, n, cc);
    return data.subspan(b, ChunkBegin(len, n, cc + 1) - b);
  };
  const int d = EffectivePipelineDepth(len, n, comm.pipeline_depth);
  SliceWindow carry;
  AIACC_RETURN_IF_ERROR(PipelinedAllGatherPhase(
      *comm.transport, me, next, prev, n, chunk, me, comm.tag_base,
      comm.timeout_ms, pool, d, carry, CodecKind::kNone));
  ReleaseWindow(pool, carry);
  return Status::Ok();
}

Status Broadcast(const Comm& comm, int root, std::span<float> data) {
  AIACC_CHECK(comm.transport != nullptr);
  std::vector<int> ring(static_cast<std::size_t>(comm.world_size));
  for (int r = 0; r < comm.world_size; ++r) ring[static_cast<std::size_t>(r)] = r;
  return BroadcastOnRing(*comm.transport, ring, comm.rank, root, data,
                         comm.tag_base, comm.timeout_ms, PoolOf(comm));
}

Status Reduce(const Comm& comm, int root, std::span<float> data, ReduceOp op) {
  AIACC_CHECK(comm.transport != nullptr);
  const int n = comm.world_size;
  if (n <= 1) {
    FinalizeAvg(data, 1, op);
    return Status::Ok();
  }
  const ReduceOp inner = op == ReduceOp::kAvg ? ReduceOp::kSum : op;
  // Chain along the ring ending at root: rank root+1 starts, each rank
  // accumulates its predecessor's partial into a scratch copy and forwards.
  const int me = comm.rank;
  const int position = (me - root - 1 + n) % n;  // 0 = chain head
  const int next = (me + 1) % n;
  const int prev = (me + n - 1) % n;
  common::BufferPool& pool = PoolOf(comm);
  if (position == 0) {
    comm.transport->Send(me, next, comm.tag_base,
                         FillSendBuffer(pool, {}, data));
    return Status::Ok();
  }
  auto received =
      TimedRecv(*comm.transport, comm.timeout_ms, me, prev, comm.tag_base);
  if (!received.ok()) return received.status();
  if (me == root) {
    AIACC_RETURN_IF_ERROR(RecvReduce(data, *received, inner));
    ReleasePayload(pool, std::move(*received));
    FinalizeAvg(data, n, op);
    return Status::Ok();
  }
  AIACC_RETURN_IF_ERROR(CheckSize(*received, data.size()));
  // Accumulate into the received scratch so this rank's own buffer stays
  // untouched, then forward the same buffer (zero extra allocations).
  transport::Payload partial = std::move(*received);
  Accumulate(std::span<float>(partial), data, inner);
  comm.transport->Send(me, next, comm.tag_base, std::move(partial));
  return Status::Ok();
}

Status Gather(const Comm& comm, int root, std::span<const float> contribution,
              std::span<float> gathered) {
  AIACC_CHECK(comm.transport != nullptr);
  const int n = comm.world_size;
  common::BufferPool& pool = PoolOf(comm);
  if (comm.rank != root) {
    comm.transport->Send(comm.rank, root, comm.tag_base,
                         FillSendBuffer(pool, {}, contribution));
    return Status::Ok();
  }
  AIACC_CHECK(gathered.size() ==
              contribution.size() * static_cast<std::size_t>(n));
  auto block_of = [&](int r) {
    return gathered.subspan(
        static_cast<std::size_t>(r) * contribution.size(),
        contribution.size());
  };
  std::copy(contribution.begin(), contribution.end(), block_of(root).begin());

  auto consume = [&](int r, transport::Payload&& payload) -> Status {
    AIACC_RETURN_IF_ERROR(CheckSize(payload, contribution.size()));
    std::copy(payload.begin(), payload.end(), block_of(r).begin());
    ReleasePayload(pool, std::move(payload));
    return Status::Ok();
  };

  std::vector<int> pending;
  pending.reserve(static_cast<std::size_t>(n - 1));
  for (int r = 0; r < n; ++r) {
    if (r != root) pending.push_back(r);
  }
  // Drain peers in completion order: sweep every pending peer with TryRecv;
  // when a full sweep makes no progress, park briefly on one pending peer
  // (rotating) so the loop sleeps instead of spinning — an arrival from the
  // parked peer or a Shutdown wakes it immediately, an arrival from any
  // other peer is picked up by the next sweep within the park quantum.
  // `timeout_ms` bounds the silence between two successful receives, the
  // same per-message deadline the strict rank-order scan enforced.
  using Clock = std::chrono::steady_clock;
  const bool bounded = comm.timeout_ms > 0;
  constexpr std::chrono::milliseconds kParkQuantum{5};
  auto wait_start = Clock::now();
  std::size_t park = 0;
  while (!pending.empty()) {
    bool progressed = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (auto payload = comm.transport->TryRecv(root, *it, comm.tag_base)) {
        AIACC_RETURN_IF_ERROR(consume(*it, std::move(*payload)));
        it = pending.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
    if (pending.empty()) break;
    if (progressed) {
      wait_start = Clock::now();
      continue;
    }
    const int r = pending[park++ % pending.size()];
    auto quantum = kParkQuantum;
    if (bounded) {
      const auto remaining =
          std::chrono::milliseconds(comm.timeout_ms) -
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - wait_start);
      if (remaining <= std::chrono::milliseconds::zero()) {
        return DeadlineExceeded("gather: no contribution within " +
                                std::to_string(comm.timeout_ms) +
                                "ms; still missing " +
                                std::to_string(pending.size()) + " rank(s)");
      }
      quantum = std::min(quantum, remaining);
    }
    auto received = comm.transport->RecvFor(root, r, comm.tag_base, quantum);
    if (received.ok()) {
      AIACC_RETURN_IF_ERROR(consume(r, std::move(*received)));
      pending.erase(std::find(pending.begin(), pending.end(), r));
      wait_start = Clock::now();
    } else if (received.status().code() != StatusCode::kDeadlineExceeded) {
      return received.status();  // e.g. Unavailable after Shutdown
    }
    // Park quantum expired: sweep again.
  }
  return Status::Ok();
}

Status Scatter(const Comm& comm, int root, std::span<const float> scattered,
               std::span<float> chunk) {
  AIACC_CHECK(comm.transport != nullptr);
  common::BufferPool& pool = PoolOf(comm);
  const int n = comm.world_size;
  if (comm.rank == root) {
    AIACC_CHECK(scattered.size() == chunk.size() * static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      auto block = scattered.subspan(
          static_cast<std::size_t>(r) * chunk.size(), chunk.size());
      if (r == root) {
        std::copy(block.begin(), block.end(), chunk.begin());
      } else {
        comm.transport->Send(root, r, comm.tag_base,
                             FillSendBuffer(pool, {}, block));
      }
    }
  } else {
    auto received = TimedRecv(*comm.transport, comm.timeout_ms, comm.rank,
                              root, comm.tag_base);
    if (!received.ok()) return received.status();
    AIACC_RETURN_IF_ERROR(CheckSize(*received, chunk.size()));
    std::copy(received->begin(), received->end(), chunk.begin());
    ReleasePayload(pool, std::move(*received));
  }
  return Status::Ok();
}

Status AllToAll(const Comm& comm, std::span<const float> send,
                std::span<float> recv) {
  AIACC_CHECK(comm.transport != nullptr);
  common::BufferPool& pool = PoolOf(comm);
  const int n = comm.world_size;
  AIACC_CHECK(send.size() == recv.size());
  AIACC_CHECK(send.size() % static_cast<std::size_t>(n) == 0);
  const std::size_t block = send.size() / static_cast<std::size_t>(n);
  // Post all sends first (non-blocking), then receive from every peer.
  for (int d = 0; d < n; ++d) {
    auto out = send.subspan(static_cast<std::size_t>(d) * block, block);
    if (d == comm.rank) {
      std::copy(out.begin(), out.end(),
                recv.begin() + static_cast<std::ptrdiff_t>(d) *
                                   static_cast<std::ptrdiff_t>(block));
    } else {
      comm.transport->Send(comm.rank, d, comm.tag_base,
                           FillSendBuffer(pool, {}, out));
    }
  }
  for (int s = 0; s < n; ++s) {
    if (s == comm.rank) continue;
    auto received =
        TimedRecv(*comm.transport, comm.timeout_ms, comm.rank, s,
                  comm.tag_base);
    if (!received.ok()) return received.status();
    AIACC_RETURN_IF_ERROR(CheckSize(*received, block));
    std::copy(received->begin(), received->end(),
              recv.begin() + static_cast<std::ptrdiff_t>(s) *
                                 static_cast<std::ptrdiff_t>(block));
    ReleasePayload(pool, std::move(*received));
  }
  return Status::Ok();
}

int MultiChannelWorkerCount() {
  return static_cast<int>(GlobalChannelWorkers().pool.size());
}

Status MultiChannelAllReduce(const Comm& comm, std::span<float> data,
                             ReduceOp op, int num_channels) {
  AIACC_CHECK(num_channels >= 1);
  // Fall back to a single ring when the payload cannot feed every channel
  // at least one element per ring chunk *per pipeline slice* — combined
  // with the per-ring EffectivePipelineDepth clamp this makes degenerate
  // empty slices impossible at any channel count.
  const std::size_t depth = static_cast<std::size_t>(
      std::clamp(comm.pipeline_depth, 1, kMaxPipelineDepth));
  if (num_channels == 1 ||
      data.size() < static_cast<std::size_t>(num_channels) *
                        static_cast<std::size_t>(comm.world_size) * depth) {
    return RingAllReduce(comm, data, op);
  }
  // Channel 0 runs on the calling thread, so k channels consume k-1 pool
  // workers. Reserving before submitting keeps pool size >= the number of
  // channel tasks in flight across *all* concurrent invocations — ring
  // tasks block on their peers, so every submitted task must be running for
  // any of them to finish.
  ChannelWorkers& workers = GlobalChannelWorkers();
  const std::size_t extra = static_cast<std::size_t>(num_channels - 1);
  {
    common::MutexLock lock(workers.mu);
    workers.reserved += extra;
    workers.pool.EnsureWorkers(workers.reserved);
  }

  // Stack-local completion latch: acquired last, nests under nothing.
  struct Completion {
    common::Mutex mu{"mc-completion"};
    common::CondVar cv;
    int remaining GUARDED_BY(mu) = 0;
  } done;
  {
    common::MutexLock lock(done.mu);
    done.remaining = static_cast<int>(extra);
  }
  std::vector<Status> channel_status(static_cast<std::size_t>(num_channels));
  // One runner for every channel — the pool workers and the calling thread
  // (which runs channel 0 inline) build the sub-Comm/slice identically.
  // Safe to capture `comm`/`data` by reference/value: the invocation blocks
  // on the completion latch before returning.
  auto run_channel = [&comm, data, op, num_channels](int c) -> Status {
    const std::size_t b = ChunkBegin(data.size(), num_channels, c);
    const std::size_t e = ChunkBegin(data.size(), num_channels, c + 1);
    Comm sub = comm;
    // Each channel gets a disjoint tag namespace (collective/tags.h).
    sub.tag_base = ChannelTagBase(comm.tag_base, c);
    AIACC_TRACE_SPAN_IDX("comm.channel", "channel", c);
    return RingAllReduce(sub, data.subspan(b, e - b), op);
  };
  for (int c = 1; c < num_channels; ++c) {
    Status* slot = &channel_status[static_cast<std::size_t>(c)];
    workers.pool.Submit([run_channel, slot, &done, c] {
      *slot = run_channel(c);
      common::MutexLock lock(done.mu);
      if (--done.remaining == 0) done.cv.NotifyAll();
    });
  }
  channel_status[0] = run_channel(0);
  {
    common::MutexLock lock(done.mu);
    while (done.remaining != 0) done.cv.Wait(lock);
  }
  {
    common::MutexLock lock(workers.mu);
    workers.reserved -= extra;
  }
  for (const Status& st : channel_status) {
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

}  // namespace aiacc::collective
