#ifndef LODVIZ_VIZ_CANVAS_H_
#define LODVIZ_VIZ_CANVAS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geo/geometry.h"

namespace lodviz::viz {

/// Headless pixel raster: each cell counts how many marks hit it. This is
/// the measuring instrument for the survey's "squeeze a billion records
/// into a million pixels" argument [119] — over-plotting is visible as
/// counts > 1, and the benefit of aggregation as bounded drawn elements.
///
/// Coordinates are unit-square doubles; (0,0) is bottom-left.
class Canvas {
 public:
  Canvas(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  /// Marks the pixel containing (x, y) in unit coordinates.
  void DrawPoint(double x, double y);

  /// Draws a line between unit-space endpoints (DDA).
  void DrawLine(double x0, double y0, double x1, double y1);

  /// Fills the axis-aligned rectangle (unit space).
  void FillRect(const geo::Rect& r);

  /// Marks the outline of a circle (unit space, radius in unit units).
  void DrawCircle(double cx, double cy, double radius);

  uint32_t At(int px, int py) const { return cells_[Index(px, py)]; }

  /// Number of marks drawn (sum of all counts).
  uint64_t total_marks() const { return total_marks_; }
  /// Pixels with at least one mark; O(1): Mark counts each pixel's first
  /// mark, so this, OverplotFactor and HiddenMarkFraction read no cells.
  uint64_t pixels_touched() const { return pixels_touched_; }
  /// Mean marks per touched pixel; > 1 means over-plotting.
  double OverplotFactor() const;
  /// Fraction of marks that are invisible because they share a pixel with
  /// earlier marks (the information silently lost to over-plotting).
  double HiddenMarkFraction() const;

  /// Low-res ASCII art (density shading) for CLI examples.
  std::string ToAscii(int max_cols = 80) const;

 private:
  size_t Index(int px, int py) const {
    return static_cast<size_t>(py) * width_ + px;
  }
  void Mark(int px, int py);

  int width_;
  int height_;
  std::vector<uint32_t> cells_;
  uint64_t total_marks_ = 0;
  uint64_t pixels_touched_ = 0;
};

}  // namespace lodviz::viz

#endif  // LODVIZ_VIZ_CANVAS_H_
