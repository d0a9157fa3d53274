#ifndef LODVIZ_CORE_CAPABILITIES_H_
#define LODVIZ_CORE_CAPABILITIES_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace lodviz::core {

/// The capability columns of the survey's Tables 1 and 2.
enum class Capability : uint32_t {
  kKeywordSearch = 1u << 0,   ///< Table 2 "Keyword"
  kFilter = 1u << 1,          ///< Table 2 "Filter"
  kSampling = 1u << 2,        ///< "Sampling" (sampling/filtering reduction)
  kAggregation = 1u << 3,     ///< "Aggregation" (binning, clustering)
  kIncremental = 1u << 4,     ///< "Incr." (progressive computation)
  kDiskBased = 1u << 5,       ///< "Disk" (external memory at runtime)
  kRecommendation = 1u << 6,  ///< Table 1 "Recomm."
  kPreferences = 1u << 7,     ///< Table 1 "Preferences"
  kStatistics = 1u << 8,      ///< Table 1 "Statistics"
};

using CapabilitySet = uint32_t;

inline constexpr CapabilitySet kNoCapabilities = 0;

constexpr CapabilitySet Caps() { return 0; }
template <typename... Rest>
constexpr CapabilitySet Caps(Capability first, Rest... rest) {
  return static_cast<CapabilitySet>(first) | Caps(rest...);
}

inline bool HasCapability(CapabilitySet set, Capability cap) {
  return (set & static_cast<CapabilitySet>(cap)) != 0;
}

std::string_view CapabilityName(Capability cap);

}  // namespace lodviz::core

#endif  // LODVIZ_CORE_CAPABILITIES_H_
