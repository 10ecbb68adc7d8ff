// Cross-deployment tuning cache (paper §VI): AIACC stores the best parameter
// setting found for a (DNN computation graph, cloud instance, network
// topology) and seeds the search for *similar* deployments with it.
// Similarity combines a graph edit distance over the model's layer graph
// with a topology distance (host/GPU counts, transport).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/config.h"
#include "dnn/model.h"
#include "net/topology.h"

namespace aiacc::autotune {

/// Normalized edit distance between two layer graphs in [0, 1]:
/// insert/delete cost 1 per node, substitution cost by kind mismatch and
/// parameter-size ratio. (The models' computation graphs are chains, so the
/// general GED reduces to sequence edit distance — computed exactly.)
double GraphDistance(const std::vector<dnn::ModelDescriptor::GraphNode>& a,
                     const std::vector<dnn::ModelDescriptor::GraphNode>& b);

/// Topology distance in [0, 1]: transport mismatch dominates, then relative
/// differences in host count and GPUs per host.
double TopologyDistance(const net::Topology& a, const net::Topology& b);

class TuningCache {
 public:
  struct Entry {
    std::string model_name;
    std::vector<dnn::ModelDescriptor::GraphNode> graph;
    net::Topology topology;
    core::CommConfig config;
    double score = 0.0;
  };

  /// Record the tuned configuration for a deployment (replaces an existing
  /// entry for the identical model/topology pair when the score improves).
  void Store(const dnn::ModelDescriptor& model, const net::Topology& topology,
             const core::CommConfig& config, double score);

  /// Best-matching previous deployment within `max_distance` (combined
  /// graph+topology distance); nullopt when nothing is close enough.
  [[nodiscard]] std::optional<core::CommConfig> LookupSimilar(
      const dnn::ModelDescriptor& model, const net::Topology& topology,
      double max_distance = 0.45) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

  /// Persistence (§VI: the cloud service "stores the previously-found best
  /// parameter setting" across deployments). Versioned binary format that
  /// keeps the fields the tuner chooses; the others load at their defaults.
  /// Load replaces the current contents.
  [[nodiscard]] std::vector<std::uint8_t> Serialize() const;
  ::aiacc::Status Deserialize(const std::vector<std::uint8_t>& bytes);
  ::aiacc::Status SaveTo(const std::string& path) const;
  ::aiacc::Status LoadFrom(const std::string& path);

 private:
  std::vector<Entry> entries_;
};

}  // namespace aiacc::autotune
