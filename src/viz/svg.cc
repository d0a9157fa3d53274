#include "viz/svg.h"

#include <cstdio>
#include <fstream>

namespace lodviz::viz {

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

SvgWriter::SvgWriter(int width, int height) : width_(width), height_(height) {}

void SvgWriter::Circle(double cx, double cy, double radius_px,
                       const std::string& fill, double opacity) {
  elements_.push_back("<circle cx=\"" + Num(X(cx)) + "\" cy=\"" + Num(Y(cy)) +
                      "\" r=\"" + Num(radius_px) + "\" fill=\"" + fill +
                      "\" fill-opacity=\"" + Num(opacity) + "\"/>");
}

void SvgWriter::Line(double x0, double y0, double x1, double y1,
                     const std::string& stroke, double stroke_width,
                     double opacity) {
  elements_.push_back("<line x1=\"" + Num(X(x0)) + "\" y1=\"" + Num(Y(y0)) +
                      "\" x2=\"" + Num(X(x1)) + "\" y2=\"" + Num(Y(y1)) +
                      "\" stroke=\"" + stroke + "\" stroke-width=\"" +
                      Num(stroke_width) + "\" stroke-opacity=\"" +
                      Num(opacity) + "\"/>");
}

void SvgWriter::Rect(const geo::Rect& r, const std::string& fill,
                     const std::string& stroke) {
  elements_.push_back(
      "<rect x=\"" + Num(X(r.min_x)) + "\" y=\"" + Num(Y(r.max_y)) +
      "\" width=\"" + Num((r.max_x - r.min_x) * width_) + "\" height=\"" +
      Num((r.max_y - r.min_y) * height_) + "\" fill=\"" + fill +
      "\" stroke=\"" + stroke + "\"/>");
}

std::string SvgWriter::ToString() const {
  std::string out = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    std::to_string(width_) + "\" height=\"" +
                    std::to_string(height_) + "\">\n";
  out += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  for (const std::string& e : elements_) {
    out += e;
    out += '\n';
  }
  out += "</svg>\n";
  return out;
}

bool SvgWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToString();
  return static_cast<bool>(out);
}

}  // namespace lodviz::viz
