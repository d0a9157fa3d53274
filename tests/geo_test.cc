#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "geo/geometry.h"
#include "geo/projection.h"
#include "geo/rtree.h"
#include "geo/tiles.h"

namespace lodviz::geo {
namespace {

TEST(RectTest, ContainsAndIntersects) {
  Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.Contains(Point{5, 5}));
  EXPECT_TRUE(r.Contains(Point{0, 0}));
  EXPECT_FALSE(r.Contains(Point{11, 5}));
  EXPECT_TRUE(r.Intersects(Rect{9, 9, 12, 12}));
  EXPECT_FALSE(r.Intersects(Rect{11, 11, 12, 12}));
  EXPECT_TRUE(r.Contains(Rect{1, 1, 2, 2}));
  EXPECT_FALSE(r.Contains(Rect{1, 1, 22, 2}));
}

TEST(RectTest, ExpandAndEnlargement) {
  Rect r = Rect::Empty();
  EXPECT_TRUE(r.IsEmpty());
  r.Expand(Point{1, 2});
  r.Expand(Point{3, -1});
  EXPECT_EQ(r, (Rect{1, -1, 3, 2}));
  EXPECT_DOUBLE_EQ(r.Area(), 6.0);
  EXPECT_DOUBLE_EQ(r.EnlargementFor(Rect{3, 2, 4, 3}), (3 * 4) - 6.0);
}

TEST(RectTest, DistanceSq) {
  Rect r{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(r.DistanceSq(Point{5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(r.DistanceSq(Point{13, 14}), 9.0 + 16.0);
  EXPECT_DOUBLE_EQ(r.DistanceSq(Point{-3, 5}), 9.0);
}

std::vector<RTree::Entry> RandomEntries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RTree::Entry> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x = rng.UniformDouble(0, 1000);
    double y = rng.UniformDouble(0, 1000);
    out.push_back({Rect{x, y, x + rng.UniformDouble(0, 5),
                        y + rng.UniformDouble(0, 5)},
                   i});
  }
  return out;
}

std::set<uint64_t> NaiveSearch(const std::vector<RTree::Entry>& entries,
                               const Rect& window) {
  std::set<uint64_t> ids;
  for (const auto& e : entries) {
    if (e.rect.Intersects(window)) ids.insert(e.id);
  }
  return ids;
}

std::set<uint64_t> TreeSearch(const RTree& tree, const Rect& window) {
  std::set<uint64_t> ids;
  tree.Search(window, [&](const RTree::Entry& e) {
    ids.insert(e.id);
    return true;
  });
  return ids;
}

/// Property test: R-tree window queries agree with a linear scan, for both
/// incremental insertion and STR bulk load, across sizes.
class RTreeAgreement : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeAgreement, InsertMatchesNaive) {
  auto entries = RandomEntries(GetParam(), 42 + GetParam());
  RTree tree(8);
  for (const auto& e : entries) tree.Insert(e.rect, e.id);
  EXPECT_EQ(tree.size(), entries.size());

  Rng rng(7);
  for (int q = 0; q < 20; ++q) {
    double x = rng.UniformDouble(0, 900);
    double y = rng.UniformDouble(0, 900);
    Rect window{x, y, x + 120, y + 120};
    EXPECT_EQ(TreeSearch(tree, window), NaiveSearch(entries, window));
  }
}

TEST_P(RTreeAgreement, BulkLoadMatchesNaive) {
  auto entries = RandomEntries(GetParam(), 87 + GetParam());
  RTree tree(16);
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), entries.size());

  Rng rng(9);
  for (int q = 0; q < 20; ++q) {
    double x = rng.UniformDouble(0, 900);
    double y = rng.UniformDouble(0, 900);
    Rect window{x, y, x + 80, y + 200};
    EXPECT_EQ(TreeSearch(tree, window), NaiveSearch(entries, window));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeAgreement,
                         ::testing::Values(0, 1, 7, 50, 300, 2000));

TEST(RTreeTest, WindowQueryVisitsFewNodes) {
  auto entries = RandomEntries(20000, 3);
  RTree tree(16);
  tree.BulkLoad(entries);
  Rect tiny{500, 500, 510, 510};
  (void)tree.SearchAll(tiny);  // only the traversal counter matters here
  // A selective window must not visit anywhere near all nodes.
  EXPECT_LT(tree.nodes_visited, 200u);
}

TEST(RTreeTest, EarlyStopSearch) {
  auto entries = RandomEntries(100, 33);
  RTree tree(8);
  for (const auto& e : entries) tree.Insert(e.rect, e.id);
  int seen = 0;
  tree.Search(Rect{0, 0, 1000, 1000}, [&](const RTree::Entry&) {
    ++seen;
    return seen < 5;
  });
  EXPECT_EQ(seen, 5);
}

TEST(TileKeyTest, PackAndFamily) {
  TileKey k{3, 5, 6};
  EXPECT_EQ(k.Parent(), (TileKey{2, 2, 3}));
  EXPECT_NE(TileKey({3, 5, 6}).Pack(), TileKey({3, 6, 5}).Pack());
}

TEST(TileSchemeTest, PointToTileAndBack) {
  TileScheme scheme(Rect{0, 0, 100, 100});
  TileKey k = scheme.TileForPoint(2, Point{30, 80});
  EXPECT_EQ(k, (TileKey{2, 1, 3}));
}

TEST(TileSchemeTest, OutOfDomainClampsToEdge) {
  TileScheme scheme(Rect{0, 0, 100, 100});
  EXPECT_EQ(scheme.TileForPoint(2, Point{-50, 150}), (TileKey{2, 0, 3}));
}

TEST(TileSchemeTest, TilesInRectCoversWindow) {
  TileScheme scheme(Rect{0, 0, 100, 100});
  auto tiles = scheme.TilesInRect(3, Rect{10, 10, 40, 30});
  // Zoom 3 tiles are 12.5 wide: the window spans tile columns 0-3 and
  // rows 0-2, and nothing else.
  std::vector<TileKey> expected;
  for (uint32_t x = 0; x <= 3; ++x) {
    for (uint32_t y = 0; y <= 2; ++y) expected.push_back({3, x, y});
  }
  EXPECT_EQ(tiles, expected);
}

TEST(ProjectionTest, RoundTrip) {
  Point p = ProjectEquirectangular(-74.0, 40.7);
  EXPECT_GT(p.x, 0.0);
  EXPECT_LT(p.x, 1.0);
  double lon, lat;
  UnprojectEquirectangular(p, &lon, &lat);
  EXPECT_NEAR(lon, -74.0, 1e-9);
  EXPECT_NEAR(lat, 40.7, 1e-9);
  EXPECT_TRUE(WorldDomain().Contains(p));
}

}  // namespace
}  // namespace lodviz::geo
