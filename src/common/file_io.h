// Whole-file reads and atomic whole-file writes: the library's only file
// I/O. Binary artifacts (checkpoints, the tuning cache) and the telemetry
// dumps (flight recorder, Chrome trace, metrics) all go through here. Every
// failure is a Status: a missing file is kNotFound, anything that cannot be
// read to its end (a directory, an I/O error) is kDataLoss.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace aiacc::common {

/// Read the whole file at `path`.
Result<std::vector<std::uint8_t>> ReadFile(const std::string& path);

/// Write `bytes` to `path` via `path + ".tmp"` and a rename, so a crash
/// mid-write leaves either the old file or the new one, never a torn one.
/// On failure the temp file is removed.
Status WriteFileAtomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Text form of the above, for the JSON dumps.
inline Status WriteFileAtomic(const std::string& path, std::string_view text) {
  return WriteFileAtomic(
      path, std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()));
}

}  // namespace aiacc::common
