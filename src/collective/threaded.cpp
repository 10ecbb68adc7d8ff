#include "collective/threaded.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/sync.h"
#include "common/thread_pool.h"
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

/// A pooled send buffer holding a copy of `src`.
transport::Payload FillSendBuffer(common::BufferPool& pool,
                                  std::span<const float> src) {
  transport::Payload out = pool.Acquire(src.size());
  std::copy(src.begin(), src.end(), out.begin());
  return out;
}

/// Hand a finished payload back to the pool.
void ReleasePayload(common::BufferPool& pool, transport::Payload&& payload) {
  if (payload.capacity() > 0) pool.Release(std::move(payload));
}

/// A pooled send buffer holding `src` cast-encoded into
/// CastWireFloats(src.size()) wire words — the codec twin of FillSendBuffer.
transport::Payload FillSendEncoded(common::BufferPool& pool,
                                   std::span<const float> src,
                                   CodecKind wire) {
  transport::Payload out = pool.Acquire(compress::CastWireFloats(src.size()));
  compress::CastEncode(wire, src, out);
  return out;
}

/// The ranks of one ring as an arithmetic progression: position i is global
/// rank base + i * stride — the flat ring, one host group, or the host
/// leaders — so no call builds a rank vector.
struct RingRanks {
  int base = 0;
  int stride = 1;
  int size = 1;
  [[nodiscard]] int At(int pos) const {
    return base + (((pos % size) + size) % size) * stride;
  }
};

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

/// A walking cursor over pieces that tile [0, len) in order. The ring
/// visits slices chunk by chunk in descending ring order and in ascending
/// order within a chunk, so the cursor finds each slice's first piece in a
/// few steps from its last position.
class PieceCursor {
 public:
  explicit PieceCursor(std::span<const std::span<float>> pieces)
      : pieces_(pieces) {}

  /// Calls fn(pos, segment) for each piece segment of [offset, offset +
  /// size) in order; `pos` is the segment's offset from `offset`.
  template <typename Fn>
  void Walk(std::size_t offset, std::size_t size, Fn&& fn) {
    if (size == 0) return;
    while (offset < begin_) begin_ -= pieces_[--index_].size();
    while (offset >= begin_ + pieces_[index_].size()) {
      begin_ += pieces_[index_++].size();
    }
    for (std::size_t done = 0;;) {
      const std::span<float> piece = pieces_[index_];
      const std::size_t at = offset + done - begin_;
      const std::size_t take = std::min(piece.size() - at, size - done);
      fn(done, piece.subspan(at, take));
      done += take;
      if (done == size) return;
      begin_ += pieces_[index_++].size();
    }
  }

 private:
  std::span<const std::span<float>> pieces_;
  std::size_t index_ = 0;  // the cursor: pieces_[index_] ...
  std::size_t begin_ = 0;  // ... starts at this offset
};

/// Reads ring slices from input pieces that tile [0, len) in order; never
/// writes them.
class PieceReader {
 public:
  explicit PieceReader(std::span<const std::span<float>> pieces)
      : cursor_(pieces) {}

  /// fn(pos, segment) for each read-only segment of [offset, offset + size).
  template <typename Fn>
  void ForEach(std::size_t offset, std::size_t size, Fn&& fn) {
    cursor_.Walk(offset, size, [&](std::size_t pos, std::span<float> seg) {
      fn(pos, std::span<const float>(seg));
    });
  }

  void CopyTo(std::size_t offset, std::span<float> dst) {
    ForEach(offset, dst.size(),
            [&](std::size_t pos, std::span<const float> seg) {
              std::copy(seg.begin(), seg.end(), dst.begin() + pos);
            });
  }

  /// [offset, offset + size) as one span: the piece itself when the range
  /// lies inside one piece, else gathered into `scratch`.
  std::span<const float> View(std::size_t offset, std::size_t size,
                              std::span<float> scratch) {
    std::span<const float> view;
    ForEach(offset, size, [&](std::size_t pos, std::span<const float> seg) {
      if (seg.size() == size) {
        view = seg;
      } else {
        std::copy(seg.begin(), seg.end(), scratch.begin() + pos);
      }
    });
    return view.empty() ? std::span<const float>(scratch.first(size)) : view;
  }

 private:
  PieceCursor cursor_;
};

/// Writes finished ring slices into destination pieces that tile [0, len)
/// in order, scaling by `scale` on the way (1 = a plain copy; a multiply by
/// 1 could still quieten a signalling-NaN lane of kBitAnd traffic).
class PieceWriter {
 public:
  PieceWriter(std::span<const std::span<float>> pieces, float scale)
      : cursor_(pieces), scale_(scale) {}

  void Write(std::size_t offset, std::span<const float> src) {
    cursor_.Walk(offset, src.size(),
                 [&](std::size_t pos, std::span<float> dst) {
                   Emit(src.subspan(pos, dst.size()), dst);
                 });
  }

 private:
  void Emit(std::span<const float> src, std::span<float> dst) const {
    if (scale_ != 1.0f) {
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i] * scale_;
    } else if (src.data() != dst.data()) {  // aliased input: already there
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }

  PieceCursor cursor_;
  float scale_;
};

std::size_t TiledLength(std::span<const std::span<float>> pieces) {
  std::size_t len = 0;
  for (const std::span<float> piece : pieces) len += piece.size();
  return len;
}

/// The one ring body: an all-reduce in 2(n-1) steps. Position p of an
/// n-rank ring first sends chunk(p) of the input; step t receives
/// chunk(p - t - 1) from the previous rank.
/// During the reduce-scatter steps (t < n-1) the received partial absorbs
/// this rank's slice of the input — op(local, incoming), the operand order
/// of the serial reference, one Absorb per input piece the slice spans —
/// and is forwarded as is, so a step is one pass over the slice and the
/// input is never written. At t = n-2 the slice is fully reduced; from
/// there on every slice is final: it is written to `output` (scaled by 1/n
/// for kAvg) and forwarded unmodified, which makes it the first all-gather
/// send. `input` and `output` are pieces that tile [0, len) in order, and
/// the output pieces may be the very input pieces: each chunk is read for
/// the last time before its final value is written.
///
/// Pipelining: each chunk splits into `d` slices (Comm::pipeline_depth,
/// clamped by EffectivePipelineDepth) kept in flight on the same tag; the
/// prologue sends all d slices, then each step receives, processes and
/// forwards slice k before waiting for slice k+1. Every rank emits sends
/// in the same step-major, slice-minor order, so per-(src, tag) FIFO
/// matching holds at any depth, and slicing never changes which step an
/// element reduces in — results are bit-identical to d = 1. The d
/// prologue buffers come from the pool and the d final received buffers
/// go back to it, so the steady state allocates nothing.
///
/// With a cast codec every hop ships packed 16-bit lanes: a received
/// partial decodes into pooled scratch, absorbs the local slice there and
/// re-encodes into its own payload. A final slice is written from the
/// decoded wire form, so the rank that finished a chunk holds exactly
/// what every other rank decodes (the owner self-roundtrip) and replicas
/// stay bit-identical. A prologue slice inside one input piece is encoded
/// straight from it; one that spans pieces is gathered into the scratch
/// first.
Status RunRing(const Comm& comm, RingRanks ring, int my_pos, int tag,
               std::span<const std::span<float>> input,
               std::span<const std::span<float>> output, ReduceOp op) {
  const CodecKind wire = comm.codec.kind;
  AIACC_CHECK(wire == CodecKind::kNone || compress::IsCast(wire));
  const int n = ring.size;
  const std::size_t len = TiledLength(input);
  AIACC_CHECK(TiledLength(output) == len);
  PieceReader in(input);
  PieceWriter out(output, op == ReduceOp::kAvg && n > 1
                              ? 1.0f / static_cast<float>(n)
                              : 1.0f);
  if (n <= 1) {
    in.ForEach(0, len, [&](std::size_t pos, std::span<const float> seg) {
      out.Write(pos, seg);
    });
    return Status::Ok();
  }
  const ReduceOp inner = op == ReduceOp::kAvg ? ReduceOp::kSum : op;
  transport::Transport& tr = *comm.transport;
  common::BufferPool& pool = PoolOf(comm);
  const int me = ring.At(my_pos);
  const int next = ring.At(my_pos + 1);
  const int prev = ring.At(my_pos - 1);
  const bool encoded = wire != CodecKind::kNone;
  const int d = EffectivePipelineDepth(len, n, comm.pipeline_depth);
  // Slice k of chunk c: [begin, begin + size) of the buffer.
  struct Slice {
    std::size_t begin;
    std::size_t size;
  };
  auto slice_of = [&](int c, int k) {
    const int cc = ((c % n) + n) % n;
    const std::size_t cb = ChunkBegin(len, n, cc);
    const std::size_t cl = ChunkBegin(len, n, cc + 1) - cb;
    const std::size_t b = ChunkBegin(cl, d, k);
    return Slice{cb + b, ChunkBegin(cl, d, k + 1) - b};
  };
  // Decode scratch for the cast codec: one chunk is the largest slice,
  // acquired once per collective.
  common::BufferPool::Buffer scratch;
  if (encoded) {
    scratch = pool.Acquire((len + static_cast<std::size_t>(n) - 1) /
                           static_cast<std::size_t>(n));
  }
  auto finish = [&](std::span<const float> payload, Slice s) {
    if (encoded) {
      std::span<float> decoded = std::span<float>(scratch).first(s.size);
      compress::CastDecode(wire, payload, decoded, s.size);
      out.Write(s.begin, decoded);
    } else {
      out.Write(s.begin, payload);
    }
  };

  const int steps = 2 * (n - 1);
  auto run_steps = [&](int from, int to) -> Status {
    for (int t = from; t < to; ++t) {
      const int c = my_pos - t - 1;
      for (int k = 0; k < d; ++k) {
        Result<transport::Payload> received = [&] {
          AIACC_TRACE_SPAN_V("comm.step", "recv-wait");
          return TimedRecv(tr, comm.timeout_ms, me, prev, tag);
        }();
        if (!received.ok()) return received.status();
        const Slice s = slice_of(c, k);
        AIACC_RETURN_IF_ERROR(CheckSize(
            *received, encoded ? compress::CastWireFloats(s.size) : s.size));
        if (t < n - 1) {
          AIACC_TRACE_SPAN_V("comm.step", "reduce");
          std::span<float> partial = *received;
          if (encoded) {
            partial = std::span<float>(scratch).first(s.size);
            compress::CastDecode(wire, *received, partial, s.size);
          }
          in.ForEach(s.begin, s.size,
                     [&](std::size_t pos, std::span<const float> local) {
                       Absorb(partial.subspan(pos, local.size()), local,
                              inner);
                     });
          if (encoded) compress::CastEncode(wire, partial, *received);
        }
        if (t >= n - 2) finish(*received, s);
        if (t + 1 < steps) {
          AIACC_TRACE_SPAN_V("comm.step", "send");
          tr.Send(me, next, tag, std::move(*received));
        } else {
          ReleasePayload(pool, std::move(*received));
        }
      }
    }
    return Status::Ok();
  };

  Status status = Status::Ok();
  {
    AIACC_TRACE_SPAN("comm.phase", "reduce-scatter");
    // Prologue: every slice of this rank's own chunk.
    for (int k = 0; k < d; ++k) {
      AIACC_TRACE_SPAN_V("comm.step", "send");
      const Slice s = slice_of(my_pos, k);
      transport::Payload payload;
      if (encoded) {
        payload = FillSendEncoded(pool, in.View(s.begin, s.size, scratch),
                                  wire);
      } else {
        payload = pool.Acquire(s.size);
        in.CopyTo(s.begin, payload);
      }
      tr.Send(me, next, tag, std::move(payload));
    }
    status = run_steps(0, n - 1);
  }
  if (status.ok()) {
    AIACC_TRACE_SPAN("comm.phase", "all-gather");
    status = run_steps(n - 1, steps);
  }
  ReleasePayload(pool, std::move(scratch));
  return status;
}

Status BroadcastOnRing(transport::Transport& tr, RingRanks ring, int my_pos,
                       int root_pos, std::span<float> data, int tag,
                       std::int64_t timeout_ms, common::BufferPool& pool,
                       CodecKind wire = CodecKind::kNone) {
  const int n = ring.size;
  if (n <= 1) return Status::Ok();
  const bool encoded = wire != CodecKind::kNone;
  const int me = ring.At(my_pos);
  const int next = ring.At(my_pos + 1);
  const int prev = ring.At(my_pos - 1);
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
    transport::Payload out = FillSendEncoded(pool, data, wire);
    compress::CastDecode(wire, out, data, data.size());
    if (!next_is_root) {
      tr.Send(me, next, tag, std::move(out));
    } else {
      ReleasePayload(pool, std::move(out));
    }
  } else if (!next_is_root) {
    tr.Send(me, next, tag, FillSendBuffer(pool, data));
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

void ReadPieces(std::span<const std::span<float>> pieces,
                std::span<float> dst) {
  AIACC_CHECK(TiledLength(pieces) == dst.size());
  PieceReader(pieces).CopyTo(0, dst);
}

void WritePieces(std::span<const float> src,
                 std::span<const std::span<float>> pieces) {
  AIACC_CHECK(TiledLength(pieces) == src.size());
  PieceWriter(pieces, 1.0f).Write(0, src);
}

Status RingAllReduce(const Comm& comm, std::span<const std::span<float>> input,
                     std::span<const std::span<float>> output, ReduceOp op) {
  AIACC_CHECK(comm.transport != nullptr);
  // The bit-packed sync rounds are exact agreements — a lossy codec on that
  // traffic would corrupt the protocol, so the combination is forbidden.
  AIACC_CHECK(comm.codec.kind == CodecKind::kNone || op != ReduceOp::kBitAnd);
  AIACC_TRACE_SPAN("comm", "ring-all-reduce");
  return RunRing(comm, RingRanks{0, 1, comm.world_size}, comm.rank,
                 comm.tag_base, input, output, op);
}

Status RingAllReduce(const Comm& comm, std::span<float> data, ReduceOp op) {
  if (compress::IsSparse(comm.codec.kind)) {
    AIACC_CHECK(comm.transport != nullptr);
    return CompressedAllReduce(comm, data, op, {});
  }
  const std::span<float> whole[] = {data};
  return RingAllReduce(comm, whole, whole, op);
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
        FillSendBuffer(pool, std::span<const float>(own));
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
        cursor = FillSendBuffer(pool, std::span<const float>(*received));
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
  const std::span<float> whole[] = {data};
  const RingRanks group{host * gpus_per_host, 1, gpus_per_host};

  // One host: the group ring is the whole all-reduce and averages as it
  // writes its final slices.
  if (num_hosts == 1) {
    return RunRing(comm, group, local, comm.tag_base, whole, whole, op);
  }
  const ReduceOp inner = op == ReduceOp::kAvg ? ReduceOp::kSum : op;
  // Phase 1: ring all-reduce inside the host group (over NVLink in the
  // paper) — every member ends with the group total.
  AIACC_RETURN_IF_ERROR(RunRing(comm, group, local, comm.tag_base, whole,
                                whole, inner));
  // Phase 2: group leaders ring all-reduce across hosts.
  if (local == 0) {
    AIACC_RETURN_IF_ERROR(RunRing(comm, RingRanks{0, gpus_per_host, num_hosts},
                                  host, comm.tag_base + 1, whole, whole,
                                  inner));
  }
  // Phase 3: leaders broadcast the global total inside their group.
  AIACC_RETURN_IF_ERROR(BroadcastOnRing(*comm.transport, group, local,
                                        /*root_pos=*/0, data,
                                        comm.tag_base + 2, comm.timeout_ms,
                                        PoolOf(comm), comm.codec.kind));
  FinalizeAvg(data, comm.world_size, op);
  return Status::Ok();
}

Status Broadcast(const Comm& comm, int root, std::span<float> data) {
  AIACC_CHECK(comm.transport != nullptr);
  return BroadcastOnRing(*comm.transport, RingRanks{0, 1, comm.world_size},
                         comm.rank, root, data, comm.tag_base,
                         comm.timeout_ms, PoolOf(comm));
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
