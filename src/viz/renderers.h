#ifndef LODVIZ_VIZ_RENDERERS_H_
#define LODVIZ_VIZ_RENDERERS_H_

#include <string>
#include <vector>

#include "geo/geometry.h"
#include "graph/graph.h"
#include "graph/layout.h"
#include "viz/canvas.h"
#include "viz/m4.h"

namespace lodviz::viz {

/// What a renderer actually drew — the unit the "visual scalability"
/// experiments count.
struct RenderStats {
  uint64_t elements_drawn = 0;  ///< marks/shapes issued
  uint64_t input_size = 0;      ///< data objects the renderer received
};

/// Scatter plot of (x, y) pairs normalized into the canvas.
RenderStats RenderScatter(Canvas* canvas,
                          const std::vector<geo::Point>& points);

/// Polyline chart of a (sorted-by-t) series.
RenderStats RenderLineChart(Canvas* canvas, const std::vector<Sample>& series);

/// Vertical bars for `values` (e.g. histogram bin counts).
RenderStats RenderBars(Canvas* canvas, const std::vector<double>& values);

/// Timeline: events as ticks on a horizontal time axis with stacking.
RenderStats RenderTimeline(Canvas* canvas, const std::vector<double>& times);

/// Map: lon/lat degrees projected equirectangularly.
struct GeoPoint {
  double lon = 0.0;
  double lat = 0.0;
};
RenderStats RenderMap(Canvas* canvas, const std::vector<GeoPoint>& points);

/// Clustered map (marker clustering, the standard scalable-map reduction):
/// points are aggregated on a grid and each non-empty cell is drawn as one
/// circle sized by sqrt(count) — drawn elements bounded by grid_size^2
/// regardless of input size.
RenderStats RenderClusteredMap(Canvas* canvas,
                               const std::vector<GeoPoint>& points,
                               int grid_size = 32);

/// Node-link rendering of a laid-out graph (points + edge lines).
RenderStats RenderGraph(Canvas* canvas, const graph::Graph& g,
                        const graph::Layout& layout);

/// Squarified treemap over weights; also returns the computed rectangles
/// (unit space) for downstream use.
struct TreemapCell {
  geo::Rect rect;
  double weight = 0.0;
  size_t index = 0;
};
std::vector<TreemapCell> SquarifiedTreemap(const std::vector<double>& weights,
                                           const geo::Rect& area);
RenderStats RenderTreemap(Canvas* canvas, const std::vector<double>& weights);

}  // namespace lodviz::viz

#endif  // LODVIZ_VIZ_RENDERERS_H_
