// Whole-file reads and atomic whole-file writes for the binary artifacts the
// library persists (checkpoints, the tuning cache). Every failure is a
// Status: a missing file is kNotFound, anything that cannot be read to its
// end (a directory, an I/O error) is kDataLoss.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace aiacc::common {

/// Read the whole file at `path`.
Result<std::vector<std::uint8_t>> ReadFile(const std::string& path);

/// Write `bytes` to `path` via `path + ".tmp"` and a rename, so a crash
/// mid-write leaves either the old file or the new one, never a torn one.
Status WriteFileAtomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

}  // namespace aiacc::common
