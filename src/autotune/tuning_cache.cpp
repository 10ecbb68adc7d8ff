#include "autotune/tuning_cache.h"

#include <algorithm>
#include <cmath>

#include "common/file_io.h"

namespace aiacc::autotune {
namespace {

double NodeSubstitutionCost(const dnn::ModelDescriptor::GraphNode& a,
                            const dnn::ModelDescriptor::GraphNode& b) {
  double cost = a.kind == b.kind ? 0.0 : 0.6;
  const double pa = static_cast<double>(std::max<std::int64_t>(a.param_elements, 1));
  const double pb = static_cast<double>(std::max<std::int64_t>(b.param_elements, 1));
  // Log-ratio of parameter sizes, saturating at one decade.
  cost += 0.4 * std::min(1.0, std::fabs(std::log10(pa / pb)));
  return cost;
}

}  // namespace

double GraphDistance(const std::vector<dnn::ModelDescriptor::GraphNode>& a,
                     const std::vector<dnn::ModelDescriptor::GraphNode>& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 && m == 0) return 0.0;
  // Levenshtein DP with weighted substitution; two rolling rows.
  std::vector<double> prev(m + 1);
  std::vector<double> curr(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = static_cast<double>(j);
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = static_cast<double>(i);
    for (std::size_t j = 1; j <= m; ++j) {
      const double sub = prev[j - 1] + NodeSubstitutionCost(a[i - 1], b[j - 1]);
      const double del = prev[j] + 1.0;
      const double ins = curr[j - 1] + 1.0;
      curr[j] = std::min({sub, del, ins});
    }
    std::swap(prev, curr);
  }
  return prev[m] / static_cast<double>(std::max(n, m));
}

double TopologyDistance(const net::Topology& a, const net::Topology& b) {
  double d = 0.0;
  if (a.inter_node != b.inter_node) d += 0.5;
  auto rel = [](int x, int y) {
    const double mx = std::max(x, y);
    return std::fabs(x - y) / std::max(1.0, mx);
  };
  d += 0.3 * rel(a.num_hosts, b.num_hosts);
  d += 0.2 * rel(a.gpus_per_host, b.gpus_per_host);
  return std::min(1.0, d);
}

void TuningCache::Store(const dnn::ModelDescriptor& model,
                        const net::Topology& topology,
                        const core::CommConfig& config, double score) {
  for (Entry& e : entries_) {
    if (e.model_name == model.name() && e.topology == topology) {
      if (score > e.score) {
        e.config = config;
        e.score = score;
      }
      return;
    }
  }
  entries_.push_back(
      Entry{model.name(), model.GraphFingerprint(), topology, config, score});
}

std::optional<core::CommConfig> TuningCache::LookupSimilar(
    const dnn::ModelDescriptor& model, const net::Topology& topology,
    double max_distance) const {
  const auto graph = model.GraphFingerprint();
  double best = max_distance;
  const Entry* best_entry = nullptr;
  for (const Entry& e : entries_) {
    const double d = 0.6 * GraphDistance(graph, e.graph) +
                     0.4 * TopologyDistance(topology, e.topology);
    if (d <= best) {
      best = d;
      best_entry = &e;
    }
  }
  if (best_entry == nullptr) return std::nullopt;
  return best_entry->config;
}

namespace {
constexpr std::uint32_t kCacheMagic = 0xA1ACCCA5;
// Version 5 persists only the fields the tuner chooses (CommConfigSpace's
// axes plus the min_bucket_bytes derived from granularity); every other
// CommConfig field loads at its default. Earlier versions also stored
// fields the tuner never varied and are rejected, not migrated.
constexpr std::uint32_t kCacheVersion = 5;
}  // namespace

std::vector<std::uint8_t> TuningCache::Serialize() const {
  ByteWriter w;
  w.WriteU32(kCacheMagic);
  w.WriteU32(kCacheVersion);
  w.WriteU64(entries_.size());
  for (const Entry& e : entries_) {
    w.WriteString(e.model_name);
    w.WriteU64(e.graph.size());
    for (const auto& node : e.graph) {
      w.WriteU8(static_cast<std::uint8_t>(node.kind));
      w.WriteI64(node.param_elements);
    }
    w.WriteI64(e.topology.num_hosts);
    w.WriteI64(e.topology.gpus_per_host);
    w.WriteU8(static_cast<std::uint8_t>(e.topology.inter_node));
    w.WriteI64(e.config.num_streams);
    w.WriteU64(e.config.granularity_bytes);
    w.WriteU8(static_cast<std::uint8_t>(e.config.algorithm));
    w.WriteU64(e.config.min_bucket_bytes);
    w.WriteF64(e.score);
  }
  return std::move(w).Take();
}

Status TuningCache::Deserialize(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  auto magic = r.ReadU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kCacheMagic) return DataLoss("bad tuning-cache magic");
  auto version = r.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kCacheVersion) {
    return Unimplemented("unsupported tuning-cache version");
  }
  auto count = r.ReadU64();
  if (!count.ok()) return count.status();

  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    Entry e;
    auto name = r.ReadString();
    if (!name.ok()) return name.status();
    e.model_name = std::move(*name);
    auto n_nodes = r.ReadU64();
    if (!n_nodes.ok()) return n_nodes.status();
    for (std::uint64_t n = 0; n < *n_nodes; ++n) {
      auto kind = r.ReadU8();
      if (!kind.ok()) return kind.status();
      auto elems = r.ReadI64();
      if (!elems.ok()) return elems.status();
      e.graph.push_back(dnn::ModelDescriptor::GraphNode{
          static_cast<dnn::LayerKind>(*kind), *elems});
    }
    auto hosts = r.ReadI64();
    if (!hosts.ok()) return hosts.status();
    auto gph = r.ReadI64();
    if (!gph.ok()) return gph.status();
    auto transport = r.ReadU8();
    if (!transport.ok()) return transport.status();
    e.topology.num_hosts = static_cast<int>(*hosts);
    e.topology.gpus_per_host = static_cast<int>(*gph);
    e.topology.inter_node = static_cast<net::TransportKind>(*transport);
    auto streams = r.ReadI64();
    if (!streams.ok()) return streams.status();
    auto gran = r.ReadU64();
    if (!gran.ok()) return gran.status();
    auto algo = r.ReadU8();
    if (!algo.ok()) return algo.status();
    auto bucket = r.ReadU64();
    if (!bucket.ok()) return bucket.status();
    e.config.num_streams = static_cast<int>(*streams);
    e.config.granularity_bytes = static_cast<std::size_t>(*gran);
    e.config.algorithm = static_cast<collective::Algorithm>(*algo);
    e.config.min_bucket_bytes = static_cast<std::size_t>(*bucket);
    auto score = r.ReadF64();
    if (!score.ok()) return score.status();
    e.score = *score;
    entries.push_back(std::move(e));
  }
  if (!r.AtEnd()) return DataLoss("trailing bytes in tuning cache");
  entries_ = std::move(entries);
  return Status::Ok();
}

Status TuningCache::SaveTo(const std::string& path) const {
  return common::WriteFileAtomic(path, Serialize());
}

Status TuningCache::LoadFrom(const std::string& path) {
  auto bytes = common::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return Deserialize(*bytes);
}

}  // namespace aiacc::autotune
