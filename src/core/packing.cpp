#include "core/packing.h"

#include <algorithm>

#include "common/logging.h"

namespace aiacc::core {

std::vector<AllReduceUnit> PackingPlanner::Pack(
    const GradientRegistry& registry, const std::vector<int>& ready_ids,
    std::size_t alignment) {
  AIACC_CHECK(alignment > 0);
  std::vector<AllReduceUnit> units;
  AllReduceUnit current;
  current.unit_id = next_unit_id_++;
  std::size_t current_bytes = 0;

  auto flush = [&] {
    if (!current.segments.empty()) {
      units.push_back(std::move(current));
      current = AllReduceUnit{};
      current.unit_id = next_unit_id_++;
      current_bytes = 0;
    }
  };

  for (int id : ready_ids) {
    AIACC_CHECK(id >= 0 && id < registry.size());
    const std::size_t total = registry.Get(id).bytes;
    std::size_t offset = 0;
    while (offset < total) {
      std::size_t room = granularity_ - current_bytes;
      // Keep slices element-aligned; if the remaining room can't hold a
      // whole element, start a fresh unit.
      room -= room % alignment;
      if (room == 0) {
        flush();
        continue;
      }
      const std::size_t take = std::min(room, total - offset);
      current.segments.push_back(UnitSegment{id, offset, take});
      current_bytes += take;
      offset += take;
      if (current_bytes >= granularity_) flush();
    }
  }
  flush();
  return units;
}

void StreamingPacker::Add(int gradient_id, std::size_t bytes,
                          compress::CodecSpec codec) {
  if (!current_.segments.empty() && current_.codec != codec) {
    CloseCurrent();
  }
  std::size_t offset = 0;
  while (offset < bytes) {
    std::size_t room = granularity_ - current_bytes_;
    room -= room % alignment_;
    if (room == 0) {
      CloseCurrent();
      continue;
    }
    const std::size_t take = std::min(room, bytes - offset);
    // Stamp (and re-stamp after a mid-gradient close) so every unit a split
    // gradient spans carries the gradient's codec.
    current_.codec = codec;
    current_.segments.push_back(UnitSegment{gradient_id, offset, take});
    current_bytes_ += take;
    offset += take;
    if (current_bytes_ >= granularity_) CloseCurrent();
  }
}

void StreamingPacker::CloseCurrent() {
  if (current_.segments.empty()) return;
  current_.unit_id = next_unit_id_++;
  ready_.push_back(std::move(current_));
  current_ = AllReduceUnit{};
  current_bytes_ = 0;
}

void StreamingPacker::Flush() { CloseCurrent(); }

AllReduceUnit StreamingPacker::PopReadyUnit() {
  AIACC_CHECK(!ready_.empty());
  AllReduceUnit unit = std::move(ready_.front());
  ready_.pop_front();
  return unit;
}

void StreamingPacker::Reset() {
  current_ = AllReduceUnit{};
  current_bytes_ = 0;
  ready_.clear();
}

}  // namespace aiacc::core
