#include "core/registry.h"

#include <algorithm>

#include "common/logging.h"

namespace aiacc::core {

Status GradientRegistry::Register(const std::string& name, std::size_t bytes) {
  if (finalized_) {
    return FailedPrecondition("registry already finalized");
  }
  if (bytes == 0) {
    return InvalidArgument("gradient '" + name + "' has zero size");
  }
  if (!names_.insert(name).second) {
    return AlreadyExists("gradient '" + name + "' already registered");
  }
  gradients_.push_back(RegisteredGradient{0, name, bytes});
  total_bytes_ += bytes;
  return Status::Ok();
}

void GradientRegistry::Finalize() {
  AIACC_CHECK(!finalized_);
  AIACC_CHECK(!gradients_.empty());
  std::sort(gradients_.begin(), gradients_.end(),
            [](const RegisteredGradient& a, const RegisteredGradient& b) {
              return a.name < b.name;
            });
  for (std::size_t i = 0; i < gradients_.size(); ++i) {
    gradients_[i].id = static_cast<int>(i);
  }
  names_ = {};
  finalized_ = true;
}

GradientRegistry GradientRegistry::FromModel(const dnn::ModelDescriptor& model,
                                             dnn::DType wire_dtype) {
  GradientRegistry registry;
  for (const dnn::GradientSpec& g : model.gradients()) {
    const Status st = registry.Register(g.name, g.ByteSize(wire_dtype));
    AIACC_CHECK(st.ok());
  }
  registry.Finalize();
  return registry;
}

Result<int> GradientRegistry::IdOf(const std::string& name) const {
  AIACC_CHECK(finalized_);
  const auto it = std::lower_bound(
      gradients_.begin(), gradients_.end(), name,
      [](const RegisteredGradient& g, const std::string& n) {
        return g.name < n;
      });
  if (it != gradients_.end() && it->name == name) return it->id;
  return NotFound("gradient '" + name + "' not registered");
}

}  // namespace aiacc::core
