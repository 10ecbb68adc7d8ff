#include "core/config.h"

#include <sstream>

#include "common/logging.h"

namespace aiacc::core {

std::string CommConfig::ToString() const {
  std::ostringstream out;
  out << "{streams=" << num_streams
      << ", granularity=" << (granularity_bytes >> 20) << "MiB"
      << ", algo=" << collective::ToString(algorithm)
      << ", min_bucket=" << (min_bucket_bytes >> 10) << "KiB"
      << ", depth=" << pipeline_depth
      << ", codec=" << compress::ToString(codec);
  // Both scheduler knobs always print (0 = FIFO dispatch) so configs that
  // differ only in dispatch policy render to distinct strings.
  out << ", sched=" << priority_urgent_fraction << "/" << priority_aging_ms
      << "ms";
  out << "}";
  return out.str();
}

std::vector<CommConfig> CommConfigSpace::AllConfigs() const {
  std::vector<CommConfig> out;
  out.reserve(NumPoints());
  for (std::size_t i = 0; i < NumPoints(); ++i) out.push_back(ConfigAt(i));
  return out;
}

CommConfig CommConfigSpace::ConfigAt(std::size_t index) const {
  AIACC_CHECK(index < NumPoints());
  CommConfig cfg;
  cfg.num_streams = stream_options[index % stream_options.size()];
  index /= stream_options.size();
  cfg.granularity_bytes =
      granularity_options[index % granularity_options.size()];
  index /= granularity_options.size();
  cfg.algorithm = algorithm_options[index];
  cfg.min_bucket_bytes = std::min<std::size_t>(cfg.granularity_bytes, 1u << 20);
  return cfg;
}

}  // namespace aiacc::core
