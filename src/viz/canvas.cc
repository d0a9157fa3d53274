#include "viz/canvas.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lodviz::viz {

Canvas::Canvas(int width, int height) : width_(width), height_(height) {
  LODVIZ_CHECK(width > 0 && height > 0);
  cells_.assign(static_cast<size_t>(width) * height, 0);
}

void Canvas::Mark(int px, int py) {
  if (px < 0 || py < 0 || px >= width_ || py >= height_) return;
  pixels_touched_ += cells_[Index(px, py)]++ == 0;
  ++total_marks_;
}

void Canvas::DrawPoint(double x, double y) {
  int px = static_cast<int>(x * width_);
  int py = static_cast<int>(y * height_);
  Mark(std::clamp(px, 0, width_ - 1), std::clamp(py, 0, height_ - 1));
}

void Canvas::DrawLine(double x0, double y0, double x1, double y1) {
  double px0 = x0 * width_, py0 = y0 * height_;
  double px1 = x1 * width_, py1 = y1 * height_;
  double dx = px1 - px0, dy = py1 - py0;
  int steps = static_cast<int>(std::max(std::abs(dx), std::abs(dy))) + 1;
  for (int s = 0; s <= steps; ++s) {
    double t = static_cast<double>(s) / steps;
    int px = static_cast<int>(px0 + dx * t);
    int py = static_cast<int>(py0 + dy * t);
    Mark(std::clamp(px, 0, width_ - 1), std::clamp(py, 0, height_ - 1));
  }
}

void Canvas::FillRect(const geo::Rect& r) {
  int x0 = std::clamp(static_cast<int>(r.min_x * width_), 0, width_ - 1);
  int x1 = std::clamp(static_cast<int>(std::ceil(r.max_x * width_)) - 1, 0,
                      width_ - 1);
  int y0 = std::clamp(static_cast<int>(r.min_y * height_), 0, height_ - 1);
  int y1 = std::clamp(static_cast<int>(std::ceil(r.max_y * height_)) - 1, 0,
                      height_ - 1);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) Mark(x, y);
  }
}

void Canvas::DrawCircle(double cx, double cy, double radius) {
  int steps = std::max(8, static_cast<int>(radius * width_ * 6));
  for (int s = 0; s < steps; ++s) {
    double angle = 2.0 * M_PI * s / steps;
    DrawPoint(cx + radius * std::cos(angle), cy + radius * std::sin(angle));
  }
}

double Canvas::OverplotFactor() const {
  return pixels_touched_ ? static_cast<double>(total_marks_) /
                              static_cast<double>(pixels_touched_)
                        : 0.0;
}

double Canvas::HiddenMarkFraction() const {
  if (total_marks_ == 0) return 0.0;
  uint64_t hidden = total_marks_ - pixels_touched_;
  return static_cast<double>(hidden) / static_cast<double>(total_marks_);
}

std::string Canvas::ToAscii(int max_cols) const {
  static const char kShades[] = " .:-=+*#%@";
  int cols = std::min(max_cols, width_);
  int rows = std::max(1, cols * height_ / width_ / 2);  // chars are tall
  std::string out;
  for (int r = rows - 1; r >= 0; --r) {
    for (int c = 0; c < cols; ++c) {
      // Aggregate the cell block.
      int x0 = c * width_ / cols, x1 = (c + 1) * width_ / cols;
      int y0 = r * height_ / rows, y1 = (r + 1) * height_ / rows;
      uint64_t sum = 0;
      for (int y = y0; y < std::max(y0 + 1, y1); ++y) {
        for (int x = x0; x < std::max(x0 + 1, x1); ++x) {
          sum += cells_[Index(std::min(x, width_ - 1), std::min(y, height_ - 1))];
        }
      }
      int shade = 0;
      if (sum > 0) {
        shade = 1 + std::min<int>(8, static_cast<int>(std::log2(
                                         static_cast<double>(sum) + 1)));
      }
      out += kShades[shade];
    }
    out += '\n';
  }
  return out;
}

}  // namespace lodviz::viz
