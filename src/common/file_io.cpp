#include "common/file_io.h"

#include <cerrno>
#include <cstdio>
#include <filesystem>

namespace aiacc::common {

Result<std::vector<std::uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return NotFound("no file at " + path);
    return Unavailable("cannot open " + path);
  }
  // Read to EOF instead of trusting a seek/tell size: on a directory the
  // reported end offset is meaningless, but the first read fails cleanly.
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[64 << 10];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return DataLoss("read failed: " + path);
  return bytes;
}

Status WriteFileAtomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Unavailable("cannot open " + tmp);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    std::remove(tmp.c_str());
    return DataLoss("short write to " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Unavailable("rename failed: " + ec.message());
  }
  return Status::Ok();
}

}  // namespace aiacc::common
