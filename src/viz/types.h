#ifndef LODVIZ_VIZ_TYPES_H_
#define LODVIZ_VIZ_TYPES_H_

#include <string>
#include <string_view>
#include <vector>

namespace lodviz::viz {

/// The data-type taxonomy of the survey's Table 1:
/// N(umeric), T(emporal), S(patial), H(ierarchical), G(raph).
enum class DataType : uint8_t {
  kNumeric,
  kTemporal,
  kSpatial,
  kHierarchical,
  kGraph,
};

/// One-letter code used in the regenerated Table 1 ("N", "T", ...).
std::string_view DataTypeCode(DataType t);

/// The visualization-type taxonomy of Tables 1 and 2 (the tables' legend:
/// B, C, CI, G, M, P, PC, S, SG, T, TL, TR) plus line/bar split used
/// internally.
enum class VisKind : uint8_t {
  kBubbleChart,     // B
  kChart,           // C (bar/line/column charts)
  kCircles,         // CI
  kGraph,           // G (node-link)
  kMap,             // M
  kPie,             // P
  kParallelCoords,  // PC
  kScatter,         // S
  kStreamgraph,     // SG
  kTreemap,         // T
  kTimeline,        // TL
  kTree,            // TR
};

/// The code used in the paper's tables ("B", "C", "CI", ...).
std::string_view VisKindCode(VisKind k);
std::string_view VisKindName(VisKind k);

/// A declarative visualization specification (the "visualization
/// abstraction" stage of LDVM): what to draw, over which properties.
struct VisSpec {
  VisKind kind = VisKind::kChart;
  std::string title;
  /// Property IRIs bound to the spec (x, y, value, ... depending on kind).
  std::string x_property;
  std::string y_property;
  /// Optional categorical property for grouping/coloring.
  std::string group_property;
  /// Number of bins/points budgeted (ties to approximation settings).
  size_t element_budget = 0;
};

}  // namespace lodviz::viz

#endif  // LODVIZ_VIZ_TYPES_H_
