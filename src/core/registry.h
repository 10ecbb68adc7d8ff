// Gradient registration (paper §V-A-1). When a model loads, every worker
// registers its parameters; parameters are sorted and assigned a unique
// index into the gradient synchronization vector, giving all workers an
// identical id space and an implicitly agreed communication order.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "dnn/model.h"

namespace aiacc::core {

struct RegisteredGradient {
  int id = 0;
  std::string name;
  std::size_t bytes = 0;
};

class GradientRegistry {
 public:
  /// Register one parameter tensor; call once per tensor, then Finalize().
  /// Duplicate names are rejected (two workers registering differently is a
  /// deployment bug the production library reports early).
  Status Register(const std::string& name, std::size_t bytes);

  /// Sorts by name and assigns dense ids. No further registration allowed.
  void Finalize();

  /// Build a finalized registry straight from a model descriptor. Note that
  /// registry ids are assigned in name-sorted order and therefore differ
  /// from the descriptor's layer-order gradient ids; engines map between the
  /// two via gradient names.
  static GradientRegistry FromModel(const dnn::ModelDescriptor& model,
                                    dnn::DType wire_dtype = dnn::DType::kF32);

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(gradients_.size());
  }
  [[nodiscard]] const RegisteredGradient& Get(int id) const {
    return gradients_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<RegisteredGradient>& All() const noexcept {
    return gradients_;
  }
  /// Id of `name` by binary search over the name-sorted gradients; the
  /// registry must be finalized.
  [[nodiscard]] Result<int> IdOf(const std::string& name) const;

  [[nodiscard]] std::size_t TotalBytes() const noexcept { return total_bytes_; }

  /// Byte size of the gradient synchronization vector (one bit per
  /// gradient, rounded up to whole words) — the sync protocol's wire cost.
  [[nodiscard]] std::size_t SyncVectorBytes() const noexcept {
    return (gradients_.size() + 7) / 8;
  }

 private:
  std::vector<RegisteredGradient> gradients_;
  std::unordered_set<std::string> names_;  // duplicate check until Finalize
  std::size_t total_bytes_ = 0;
  bool finalized_ = false;
};

}  // namespace aiacc::core
