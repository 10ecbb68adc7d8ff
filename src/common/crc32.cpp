#include "common/crc32.h"

#include <array>

namespace aiacc::common {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][b] is the register after
/// byte b is followed by k zero bytes, which lets one step fold byte j of
/// an 8-byte block through tables[7 - j].
constexpr Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

/// Little-endian load, independent of host byte order (compiles to one
/// load on little-endian targets).
inline std::uint32_t LoadLe32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc, const void* data,
                          std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const Tables& t = kTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

}  // namespace aiacc::common
