#include "viz/types.h"

namespace lodviz::viz {

std::string_view DataTypeCode(DataType t) {
  switch (t) {
    case DataType::kNumeric:
      return "N";
    case DataType::kTemporal:
      return "T";
    case DataType::kSpatial:
      return "S";
    case DataType::kHierarchical:
      return "H";
    case DataType::kGraph:
      return "G";
  }
  return "?";
}

std::string_view VisKindCode(VisKind k) {
  switch (k) {
    case VisKind::kBubbleChart:
      return "B";
    case VisKind::kChart:
      return "C";
    case VisKind::kCircles:
      return "CI";
    case VisKind::kGraph:
      return "G";
    case VisKind::kMap:
      return "M";
    case VisKind::kPie:
      return "P";
    case VisKind::kParallelCoords:
      return "PC";
    case VisKind::kScatter:
      return "S";
    case VisKind::kStreamgraph:
      return "SG";
    case VisKind::kTreemap:
      return "T";
    case VisKind::kTimeline:
      return "TL";
    case VisKind::kTree:
      return "TR";
  }
  return "?";
}

std::string_view VisKindName(VisKind k) {
  switch (k) {
    case VisKind::kBubbleChart:
      return "bubble chart";
    case VisKind::kChart:
      return "chart";
    case VisKind::kCircles:
      return "circles";
    case VisKind::kGraph:
      return "graph";
    case VisKind::kMap:
      return "map";
    case VisKind::kPie:
      return "pie";
    case VisKind::kParallelCoords:
      return "parallel coordinates";
    case VisKind::kScatter:
      return "scatter";
    case VisKind::kStreamgraph:
      return "streamgraph";
    case VisKind::kTreemap:
      return "treemap";
    case VisKind::kTimeline:
      return "timeline";
    case VisKind::kTree:
      return "tree";
  }
  return "?";
}

}  // namespace lodviz::viz
