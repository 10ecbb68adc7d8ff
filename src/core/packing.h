// Gradient packing (paper §V-B): after a synchronization round, the agreed
// ready gradients are packed into all-reduce units of the tuned granularity.
// Small tensors are merged into one unit; tensors larger than the granularity
// are split across several units. Packing follows gradient-id order, so all
// workers implicitly agree on the layout without further coordination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/logging.h"

namespace aiacc::core {

/// A contiguous piece of one gradient inside an all-reduce unit.
struct UnitSegment {
  int gradient_id = 0;
  std::size_t offset = 0;  // byte offset inside the gradient tensor
  std::size_t length = 0;  // bytes

  friend bool operator==(const UnitSegment&, const UnitSegment&) = default;
};

/// One all-reduce unit: dispatched to one communication stream.
struct AllReduceUnit {
  std::uint64_t unit_id = 0;
  std::vector<UnitSegment> segments;

  [[nodiscard]] std::size_t TotalBytes() const noexcept {
    std::size_t n = 0;
    for (const UnitSegment& s : segments) n += s.length;
    return n;
  }
};

/// The packer the engines use: gradients agreed ready by successive
/// synchronization rounds are appended to a byte-stream; complete units of
/// exactly the granularity are carved off as they fill, and the trailing
/// partial unit is only emitted on Flush() (end of backward). This is how
/// Horovod's fusion buffer and AIACC's all-reduce units behave — packing
/// does not fragment at sync-round boundaries. Slices stay element-aligned
/// (`alignment`, default fp32): a unit never exceeds the granularity, and
/// when the room left in the open unit cannot hold a whole element, the
/// next slice starts a fresh unit.
class StreamingPacker {
 public:
  explicit StreamingPacker(std::size_t granularity_bytes,
                           std::size_t alignment = 4)
      : granularity_(granularity_bytes), alignment_(alignment) {
    AIACC_CHECK(granularity_ > 0);
    AIACC_CHECK(alignment_ > 0);
  }

  /// Append a ready gradient (in agreement order).
  void Add(int gradient_id, std::size_t bytes);

  /// Close the current partial unit (if any) so it becomes ready.
  void Flush();

  /// Take the next complete unit, if one is ready.
  [[nodiscard]] bool HasReadyUnit() const noexcept { return !ready_.empty(); }
  AllReduceUnit PopReadyUnit();
  [[nodiscard]] std::size_t ReadyUnits() const noexcept {
    return ready_.size();
  }
  /// Bytes buffered in the open (partial) unit.
  [[nodiscard]] std::size_t PendingBytes() const noexcept {
    return current_bytes_;
  }

  void Reset();

 private:
  void CloseCurrent();

  std::size_t granularity_;
  std::size_t alignment_;
  std::uint64_t next_unit_id_ = 1;
  AllReduceUnit current_;
  std::size_t current_bytes_ = 0;
  std::deque<AllReduceUnit> ready_;  // FIFO (front = oldest)
};

/// The unit's segments of the per-gradient float tensors, in unit order,
/// into `pieces` (cleared first, so a caller reusing one vector allocates
/// nothing in the steady state). `tensors[id]` is gradient `id`, as
/// anything a std::span<float> converts from; segment offsets and lengths
/// are bytes, element aligned, and must lie inside their tensor. The
/// pieces tile the unit's [0, TotalBytes() / sizeof(float)): the layout
/// collective::ReadPieces, WritePieces and RingAllReduce walk.
template <typename Tensors>
void UnitPieces(const AllReduceUnit& unit, Tensors& tensors,
                std::vector<std::span<float>>& pieces) {
  pieces.clear();
  for (const UnitSegment& seg : unit.segments) {
    AIACC_CHECK(seg.offset % sizeof(float) == 0 &&
                seg.length % sizeof(float) == 0);
    const std::span<float> tensor(
        tensors[static_cast<std::size_t>(seg.gradient_id)]);
    AIACC_CHECK(seg.offset + seg.length <= tensor.size_bytes());
    pieces.push_back(tensor.subspan(seg.offset / sizeof(float),
                                    seg.length / sizeof(float)));
  }
}

}  // namespace aiacc::core
