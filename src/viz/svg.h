#ifndef LODVIZ_VIZ_SVG_H_
#define LODVIZ_VIZ_SVG_H_

#include <string>
#include <vector>

#include "geo/geometry.h"

namespace lodviz::viz {

/// Minimal SVG document builder so examples can export real, viewable
/// visualizations without a GUI. Input coordinates are unit-space;
/// y is flipped so (0,0) is bottom-left like Canvas.
class SvgWriter {
 public:
  SvgWriter(int width, int height);

  void Circle(double cx, double cy, double radius_px,
              const std::string& fill = "#1f77b4", double opacity = 1.0);
  void Line(double x0, double y0, double x1, double y1,
            const std::string& stroke = "#555", double stroke_width = 1.0,
            double opacity = 1.0);
  void Rect(const geo::Rect& r, const std::string& fill = "#1f77b4",
            const std::string& stroke = "none");

  /// Complete SVG document.
  std::string ToString() const;

  /// Writes the document to `path`; false on I/O failure.
  bool WriteFile(const std::string& path) const;

  size_t num_elements() const { return elements_.size(); }

 private:
  double X(double x) const { return x * width_; }
  double Y(double y) const { return (1.0 - y) * height_; }

  int width_;
  int height_;
  std::vector<std::string> elements_;
};

}  // namespace lodviz::viz

#endif  // LODVIZ_VIZ_SVG_H_
