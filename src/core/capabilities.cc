#include "core/capabilities.h"

namespace lodviz::core {

std::string_view CapabilityName(Capability cap) {
  switch (cap) {
    case Capability::kKeywordSearch:
      return "Keyword";
    case Capability::kFilter:
      return "Filter";
    case Capability::kSampling:
      return "Sampling";
    case Capability::kAggregation:
      return "Aggregation";
    case Capability::kIncremental:
      return "Incr.";
    case Capability::kDiskBased:
      return "Disk";
    case Capability::kRecommendation:
      return "Recomm.";
    case Capability::kPreferences:
      return "Preferences";
    case Capability::kStatistics:
      return "Statistics";
  }
  return "?";
}

}  // namespace lodviz::core
