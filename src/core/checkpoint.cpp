#include "core/checkpoint.h"

#include "common/file_io.h"

namespace aiacc::core {
namespace {

constexpr std::uint32_t kMagic = 0xA1ACC001;
constexpr std::uint32_t kVersion = 1;

std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

void WriteTensorList(ByteWriter& writer,
                     const std::vector<std::vector<float>>& tensors) {
  writer.WriteU64(tensors.size());
  for (const auto& t : tensors) writer.WriteF32Vector(t);
}

Result<std::vector<std::vector<float>>> ReadTensorList(ByteReader& reader) {
  auto count = reader.ReadU64();
  if (!count.ok()) return count.status();
  std::vector<std::vector<float>> tensors;
  tensors.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto t = reader.ReadF32Vector();
    if (!t.ok()) return t.status();
    tensors.push_back(std::move(*t));
  }
  return tensors;
}

}  // namespace

std::vector<std::uint8_t> SerializeCheckpoint(const Checkpoint& ckpt) {
  ByteWriter body;
  body.WriteI64(ckpt.iteration);
  body.WriteF64(ckpt.learning_rate);
  WriteTensorList(body, ckpt.parameters);
  WriteTensorList(body, ckpt.optimizer_state);

  ByteWriter out;
  out.WriteU32(kMagic);
  out.WriteU32(kVersion);
  out.WriteU64(body.bytes().size());
  out.WriteBytes(body.bytes().data(), body.bytes().size());
  out.WriteU64(Fnv1a(body.bytes().data(), body.bytes().size()));
  return std::move(out).Take();
}

Result<Checkpoint> DeserializeCheckpoint(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader header(bytes);
  auto magic = header.ReadU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kMagic) return DataLoss("bad checkpoint magic");
  auto version = header.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kVersion) {
    return Unimplemented("unsupported checkpoint version " +
                         std::to_string(*version));
  }
  auto body_len = header.ReadU64();
  if (!body_len.ok()) return body_len.status();
  constexpr std::size_t kHeader = 4 + 4 + 8;
  if (bytes.size() < kHeader + *body_len + 8) {
    return DataLoss("checkpoint truncated");
  }
  const std::uint8_t* body = bytes.data() + kHeader;
  ByteReader tail(body + *body_len, 8);
  auto stored_sum = tail.ReadU64();
  if (!stored_sum.ok()) return stored_sum.status();
  if (Fnv1a(body, static_cast<std::size_t>(*body_len)) != *stored_sum) {
    return DataLoss("checkpoint checksum mismatch");
  }

  ByteReader reader(body, static_cast<std::size_t>(*body_len));
  Checkpoint ckpt;
  auto iter = reader.ReadI64();
  if (!iter.ok()) return iter.status();
  ckpt.iteration = *iter;
  auto lr = reader.ReadF64();
  if (!lr.ok()) return lr.status();
  ckpt.learning_rate = *lr;
  auto params = ReadTensorList(reader);
  if (!params.ok()) return params.status();
  ckpt.parameters = std::move(*params);
  auto opt = ReadTensorList(reader);
  if (!opt.ok()) return opt.status();
  ckpt.optimizer_state = std::move(*opt);
  return ckpt;
}

Status SaveCheckpoint(const Checkpoint& ckpt, const std::string& path) {
  return common::WriteFileAtomic(path, SerializeCheckpoint(ckpt));
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  auto bytes = common::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeCheckpoint(*bytes);
}

}  // namespace aiacc::core
