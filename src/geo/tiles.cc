#include "geo/tiles.h"

#include <algorithm>
#include <cmath>

namespace lodviz::geo {

TileKey TileScheme::TileForPoint(uint8_t zoom, const Point& p) const {
  uint32_t n = 1u << zoom;
  double fx = (p.x - domain_.min_x) / std::max(1e-300, domain_.Width());
  double fy = (p.y - domain_.min_y) / std::max(1e-300, domain_.Height());
  auto clamp_tile = [n](double f) {
    int64_t t = static_cast<int64_t>(f * n);
    return static_cast<uint32_t>(std::clamp<int64_t>(t, 0, n - 1));
  };
  return {zoom, clamp_tile(fx), clamp_tile(fy)};
}

std::vector<TileKey> TileScheme::TilesInRect(uint8_t zoom,
                                             const Rect& window) const {
  TileKey lo = TileForPoint(zoom, {window.min_x, window.min_y});
  TileKey hi = TileForPoint(zoom, {window.max_x, window.max_y});
  std::vector<TileKey> out;
  for (uint32_t x = lo.x; x <= hi.x; ++x) {
    for (uint32_t y = lo.y; y <= hi.y; ++y) {
      out.push_back({zoom, x, y});
    }
  }
  return out;
}

}  // namespace lodviz::geo
