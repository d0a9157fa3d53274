#ifndef LODVIZ_GEO_TILES_H_
#define LODVIZ_GEO_TILES_H_

#include <cstdint>
#include <vector>

#include "geo/geometry.h"

namespace lodviz::geo {

/// Identifies one tile of a quadtree tiling of a square domain:
/// zoom level z has 2^z x 2^z tiles.
struct TileKey {
  uint8_t zoom = 0;
  uint32_t x = 0;
  uint32_t y = 0;

  bool operator==(const TileKey& other) const {
    return zoom == other.zoom && x == other.x && y == other.y;
  }

  /// Packs into one 64-bit value (hashing / map keys).
  uint64_t Pack() const {
    return (static_cast<uint64_t>(zoom) << 56) |
           (static_cast<uint64_t>(x) << 28) | static_cast<uint64_t>(y);
  }

  /// Inverse of Pack.
  static TileKey Unpack(uint64_t packed) {
    return {static_cast<uint8_t>(packed >> 56),
            static_cast<uint32_t>((packed >> 28) & 0x0FFFFFFF),
            static_cast<uint32_t>(packed & 0x0FFFFFFF)};
  }

  /// Parent tile one zoom level up (zoom 0 returns itself).
  TileKey Parent() const {
    if (zoom == 0) return *this;
    return {static_cast<uint8_t>(zoom - 1), x / 2, y / 2};
  }
};

/// Maps a rectangular data domain onto the quadtree tile grid.
class TileScheme {
 public:
  /// The domain rect is stretched over the whole tile square.
  explicit TileScheme(Rect domain) : domain_(domain) {}

  /// Tile containing `p` at `zoom` (points outside clamp to edge tiles).
  TileKey TileForPoint(uint8_t zoom, const Point& p) const;

  /// All tiles intersecting `window` at `zoom`.
  std::vector<TileKey> TilesInRect(uint8_t zoom, const Rect& window) const;

 private:
  Rect domain_;
};

}  // namespace lodviz::geo

#endif  // LODVIZ_GEO_TILES_H_
