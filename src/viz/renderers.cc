#include "viz/renderers.h"

#include <algorithm>
#include <cmath>

#include "geo/projection.h"

namespace lodviz::viz {

namespace {

/// Normalizes values into [0, 1] (degenerate spans map to 0.5).
struct Normalizer {
  double lo = 0.0;
  double span = 1.0;

  static Normalizer For(double min_v, double max_v) {
    Normalizer n;
    n.lo = min_v;
    n.span = max_v - min_v;
    if (n.span <= 0) n.span = 1.0;
    return n;
  }
  double operator()(double v) const { return (v - lo) / span; }
};

}  // namespace

RenderStats RenderScatter(Canvas* canvas,
                          const std::vector<geo::Point>& points) {
  RenderStats stats;
  stats.input_size = points.size();
  if (points.empty()) return stats;
  geo::Rect bounds = geo::Rect::Empty();
  for (const geo::Point& p : points) bounds.Expand(p);
  Normalizer nx = Normalizer::For(bounds.min_x, bounds.max_x);
  Normalizer ny = Normalizer::For(bounds.min_y, bounds.max_y);
  for (const geo::Point& p : points) {
    canvas->DrawPoint(nx(p.x), ny(p.y));
    ++stats.elements_drawn;
  }
  return stats;
}

RenderStats RenderLineChart(Canvas* canvas,
                            const std::vector<Sample>& series) {
  RenderStats stats;
  stats.input_size = series.size();
  if (series.size() < 2) return stats;
  double vmin = series.front().v, vmax = series.front().v;
  for (const Sample& s : series) {
    vmin = std::min(vmin, s.v);
    vmax = std::max(vmax, s.v);
  }
  Normalizer nt = Normalizer::For(series.front().t, series.back().t);
  Normalizer nv = Normalizer::For(vmin, vmax);
  for (size_t i = 1; i < series.size(); ++i) {
    canvas->DrawLine(nt(series[i - 1].t), nv(series[i - 1].v),
                     nt(series[i].t), nv(series[i].v));
    ++stats.elements_drawn;
  }
  return stats;
}

RenderStats RenderBars(Canvas* canvas, const std::vector<double>& values) {
  RenderStats stats;
  stats.input_size = values.size();
  if (values.empty()) return stats;
  double vmax = *std::max_element(values.begin(), values.end());
  if (vmax <= 0) vmax = 1.0;
  double bar_width = 1.0 / static_cast<double>(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    double h = std::max(0.0, values[i]) / vmax;
    geo::Rect bar{i * bar_width + bar_width * 0.1, 0.0,
                  (i + 1) * bar_width - bar_width * 0.1, h};
    canvas->FillRect(bar);
    ++stats.elements_drawn;
  }
  return stats;
}

RenderStats RenderTimeline(Canvas* canvas, const std::vector<double>& times) {
  RenderStats stats;
  stats.input_size = times.size();
  if (times.empty()) return stats;
  auto [mn, mx] = std::minmax_element(times.begin(), times.end());
  Normalizer nt = Normalizer::For(*mn, *mx);
  // Stack repeated ticks upward within a small jitter-free lane system.
  std::vector<int> lane_count(canvas->width(), 0);
  for (double t : times) {
    double x = nt(t);
    int px = std::clamp(static_cast<int>(x * canvas->width()), 0,
                        canvas->width() - 1);
    double y = 0.05 + 0.9 * (lane_count[px] % 20) / 20.0;
    ++lane_count[px];
    canvas->DrawPoint(x, y);
    ++stats.elements_drawn;
  }
  return stats;
}

RenderStats RenderMap(Canvas* canvas, const std::vector<GeoPoint>& points) {
  RenderStats stats;
  stats.input_size = points.size();
  for (const GeoPoint& p : points) {
    geo::Point projected = geo::ProjectEquirectangular(p.lon, p.lat);
    canvas->DrawPoint(projected.x, projected.y);
    ++stats.elements_drawn;
  }
  return stats;
}

RenderStats RenderClusteredMap(Canvas* canvas,
                               const std::vector<GeoPoint>& points,
                               int grid_size) {
  RenderStats stats;
  stats.input_size = points.size();
  if (points.empty() || grid_size <= 0) return stats;
  std::vector<uint64_t> counts(static_cast<size_t>(grid_size) * grid_size, 0);
  for (const GeoPoint& p : points) {
    geo::Point projected = geo::ProjectEquirectangular(p.lon, p.lat);
    int cx = std::clamp(static_cast<int>(projected.x * grid_size), 0,
                        grid_size - 1);
    int cy = std::clamp(static_cast<int>(projected.y * grid_size), 0,
                        grid_size - 1);
    ++counts[static_cast<size_t>(cy) * grid_size + cx];
  }
  uint64_t max_count = 1;
  for (uint64_t c : counts) max_count = std::max(max_count, c);
  double cell = 1.0 / grid_size;
  for (int cy = 0; cy < grid_size; ++cy) {
    for (int cx = 0; cx < grid_size; ++cx) {
      uint64_t count = counts[static_cast<size_t>(cy) * grid_size + cx];
      if (count == 0) continue;
      double radius = 0.5 * cell *
                      std::sqrt(static_cast<double>(count) /
                                static_cast<double>(max_count));
      canvas->DrawCircle((cx + 0.5) * cell, (cy + 0.5) * cell,
                         std::max(radius, cell * 0.05));
      ++stats.elements_drawn;
    }
  }
  return stats;
}

RenderStats RenderGraph(Canvas* canvas, const graph::Graph& g,
                        const graph::Layout& layout) {
  RenderStats stats;
  stats.input_size = g.num_nodes() + g.num_edges();
  for (const auto& [u, v] : g.edges()) {
    canvas->DrawLine(layout[u].x, layout[u].y, layout[v].x, layout[v].y);
    ++stats.elements_drawn;
  }
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    canvas->DrawPoint(layout[u].x, layout[u].y);
    ++stats.elements_drawn;
  }
  return stats;
}

std::vector<TreemapCell> SquarifiedTreemap(const std::vector<double>& weights,
                                           const geo::Rect& area) {
  // Squarify (Bruls et al.): lay out rows greedily, keeping aspect ratios
  // near 1. Weights are normalized to the area.
  std::vector<size_t> order(weights.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weights[a] > weights[b];
  });

  double total = 0;
  for (double w : weights) total += std::max(0.0, w);
  std::vector<TreemapCell> cells;
  if (total <= 0 || weights.empty()) return cells;
  double scale = area.Area() / total;

  geo::Rect remaining = area;
  size_t i = 0;
  while (i < order.size()) {
    bool horizontal = remaining.Width() >= remaining.Height();
    double side = horizontal ? remaining.Height() : remaining.Width();
    // Grow the row while the worst aspect ratio improves.
    double row_sum = 0.0;
    size_t row_end = i;
    double worst = std::numeric_limits<double>::infinity();
    while (row_end < order.size()) {
      double w = std::max(1e-12, weights[order[row_end]] * scale);
      double new_sum = row_sum + w;
      double row_thickness = new_sum / std::max(1e-12, side);
      double new_worst = 1.0;
      double offset_sum = 0.0;
      for (size_t j = i; j <= row_end; ++j) {
        double wj = std::max(1e-12, weights[order[j]] * scale);
        double len = wj / std::max(1e-12, row_thickness);
        double aspect = std::max(len / row_thickness, row_thickness / len);
        new_worst = std::max(new_worst, aspect);
        offset_sum += len;
      }
      (void)offset_sum;
      if (new_worst > worst && row_end > i) break;
      worst = new_worst;
      row_sum = new_sum;
      ++row_end;
    }
    // Lay the row along the short side.
    double thickness = row_sum / std::max(1e-12, side);
    double offset = 0.0;
    for (size_t j = i; j < row_end; ++j) {
      double wj = std::max(1e-12, weights[order[j]] * scale);
      double len = wj / std::max(1e-12, thickness);
      TreemapCell cell;
      cell.index = order[j];
      cell.weight = weights[order[j]];
      if (horizontal) {
        cell.rect = {remaining.min_x, remaining.min_y + offset,
                     remaining.min_x + thickness,
                     remaining.min_y + offset + len};
      } else {
        cell.rect = {remaining.min_x + offset, remaining.min_y,
                     remaining.min_x + offset + len,
                     remaining.min_y + thickness};
      }
      cells.push_back(cell);
      offset += len;
    }
    if (horizontal) {
      remaining.min_x += thickness;
    } else {
      remaining.min_y += thickness;
    }
    i = row_end;
  }
  return cells;
}

RenderStats RenderTreemap(Canvas* canvas, const std::vector<double>& weights) {
  RenderStats stats;
  stats.input_size = weights.size();
  for (const TreemapCell& cell : SquarifiedTreemap(weights, {0, 0, 1, 1})) {
    canvas->FillRect(cell.rect);
    ++stats.elements_drawn;
  }
  return stats;
}

}  // namespace lodviz::viz
