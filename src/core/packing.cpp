#include "core/packing.h"

#include <algorithm>

#include "common/logging.h"

namespace aiacc::core {

void StreamingPacker::Add(int gradient_id, std::size_t bytes) {
  std::size_t offset = 0;
  while (offset < bytes) {
    std::size_t room = granularity_ - current_bytes_;
    room -= room % alignment_;
    if (room == 0) {
      CloseCurrent();
      continue;
    }
    const std::size_t take = std::min(room, bytes - offset);
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
