// CRC-32 (IEEE 802.3 / zlib: reflected polynomial 0xEDB88320), computed
// slicing-by-8: eight 256-entry tables fold eight input bytes per step, with
// a bytewise tail. The values are those of the classic one-table bytewise
// loop; only the speed differs (the reliable transport checksums every wire
// frame, so this runs over every byte a robust run sends and receives).
#pragma once

#include <cstddef>
#include <cstdint>

namespace aiacc::common {

/// Advance a raw CRC register over `n` bytes: no pre- or post-inversion, so
/// a checksum over several pieces is Crc32Update(Crc32Update(~0u, a), b)
/// followed by a final `^ 0xFFFFFFFF`.
[[nodiscard]] std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                                        std::size_t n) noexcept;

/// Standard CRC-32 of one buffer (Crc32("123456789") == 0xCBF43926).
[[nodiscard]] inline std::uint32_t Crc32(const void* data,
                                         std::size_t n) noexcept {
  return Crc32Update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

}  // namespace aiacc::common
