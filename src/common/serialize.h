// Byte-buffer serialization used by checkpointing (§IV "fault-tolerance to
// restart the training process from the last checkpoint") and by the sync
// protocol's wire messages. Little-endian, append-only writer + cursor reader.
// Also the float-lane integer parser shared by the transport layers that
// carry integers in payload lanes (reliable header, trace stamp).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace aiacc {

class ByteWriter {
 public:
  void WriteU8(std::uint8_t v) { Append(&v, 1); }
  void WriteU32(std::uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(std::uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI64(std::int64_t v) { Append(&v, sizeof(v)); }
  void WriteF32(float v) { Append(&v, sizeof(v)); }
  void WriteF64(double v) { Append(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    Append(s.data(), s.size());
  }

  void WriteF32Vector(const std::vector<float>& v) {
    WriteU64(v.size());
    Append(v.data(), v.size() * sizeof(float));
  }

  void WriteBytes(const void* data, std::size_t n) { Append(data, n); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> Take() && { return std::move(buf_); }

 private:
  void Append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Cursor-based reader; every accessor reports truncation via Result/Status
/// rather than reading past the end (checkpoints may be corrupt after a
/// simulated node failure — DataLoss is an expected runtime condition).
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  Result<std::uint8_t> ReadU8() { return ReadPod<std::uint8_t>(); }
  Result<std::uint32_t> ReadU32() { return ReadPod<std::uint32_t>(); }
  Result<std::uint64_t> ReadU64() { return ReadPod<std::uint64_t>(); }
  Result<std::int64_t> ReadI64() { return ReadPod<std::int64_t>(); }
  Result<float> ReadF32() { return ReadPod<float>(); }
  Result<double> ReadF64() { return ReadPod<double>(); }

  Result<std::string> ReadString() {
    auto n = ReadU64();
    if (!n.ok()) return n.status();
    if (pos_ + *n > size_) return TruncatedError();
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(*n));
    pos_ += static_cast<std::size_t>(*n);
    return s;
  }

  Result<std::vector<float>> ReadF32Vector() {
    auto n = ReadU64();
    if (!n.ok()) return n.status();
    const std::size_t byte_len = static_cast<std::size_t>(*n) * sizeof(float);
    if (pos_ + byte_len > size_) return TruncatedError();
    std::vector<float> v(static_cast<std::size_t>(*n));
    std::memcpy(v.data(), data_ + pos_, byte_len);
    pos_ += byte_len;
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> ReadPod() {
    if (pos_ + sizeof(T) > size_) return TruncatedError();
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  static Status TruncatedError() {
    return DataLoss("serialized buffer truncated");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// A float lane that must hold a small non-negative integer below `limit`;
/// nullopt when it holds anything else (NaN, infinity, negative, fraction,
/// out of range) — how corruption that hit a header or trailer lane shows.
[[nodiscard]] inline std::optional<std::uint64_t> IntLane(
    float v, std::uint64_t limit) noexcept {
  if (!std::isfinite(v) || v < 0.0f) return std::nullopt;
  const auto u = static_cast<std::uint64_t>(v);
  if (static_cast<float>(u) != v || u >= limit) return std::nullopt;
  return u;
}

}  // namespace aiacc
