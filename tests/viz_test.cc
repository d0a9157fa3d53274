#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "viz/canvas.h"
#include "viz/m4.h"
#include "viz/renderers.h"
#include "viz/svg.h"
#include "viz/types.h"
#include "workload/scenario.h"

namespace lodviz::viz {
namespace {

TEST(TypesTest, CodesMatchPaperLegend) {
  EXPECT_EQ(DataTypeCode(DataType::kNumeric), "N");
  EXPECT_EQ(DataTypeCode(DataType::kGraph), "G");
  EXPECT_EQ(VisKindCode(VisKind::kCircles), "CI");
  EXPECT_EQ(VisKindCode(VisKind::kParallelCoords), "PC");
  EXPECT_EQ(VisKindCode(VisKind::kTimeline), "TL");
  EXPECT_EQ(VisKindCode(VisKind::kTreemap), "T");
}

TEST(CanvasTest, PointCountingAndOverplot) {
  Canvas canvas(10, 10);
  canvas.DrawPoint(0.05, 0.05);
  canvas.DrawPoint(0.05, 0.05);  // same pixel
  canvas.DrawPoint(0.95, 0.95);
  EXPECT_EQ(canvas.total_marks(), 3u);
  EXPECT_EQ(canvas.pixels_touched(), 2u);
  EXPECT_DOUBLE_EQ(canvas.OverplotFactor(), 1.5);
  EXPECT_NEAR(canvas.HiddenMarkFraction(), 1.0 / 3.0, 1e-12);
}

TEST(CanvasTest, LineTouchesContiguousPixels) {
  Canvas canvas(100, 100);
  canvas.DrawLine(0.0, 0.5, 1.0, 0.5);
  EXPECT_GE(canvas.pixels_touched(), 99u);
  EXPECT_LE(canvas.pixels_touched(), 101u);
}

TEST(CanvasTest, FillRectAndCircle) {
  Canvas canvas(100, 100);
  canvas.FillRect({0.1, 0.1, 0.3, 0.2});
  EXPECT_NEAR(static_cast<double>(canvas.pixels_touched()), 200.0, 50.0);
  Canvas c2(100, 100);
  c2.DrawCircle(0.5, 0.5, 0.25);
  EXPECT_GT(c2.pixels_touched(), 50u);
}

TEST(CanvasTest, OutOfRangeIsClamped) {
  Canvas canvas(10, 10);
  canvas.DrawPoint(2.0, -1.0);
  EXPECT_EQ(canvas.total_marks(), 1u);
}

TEST(CanvasTest, AsciiArtRenders) {
  Canvas canvas(40, 40);
  for (int i = 0; i < 100; ++i) canvas.DrawPoint(0.5, 0.5);
  std::string art = canvas.ToAscii(20);
  EXPECT_FALSE(art.empty());
  EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST(CanvasTest, StatisticsMatchBruteForceCount) {
  // Seeded draws, some reaching past the unit square: after every call
  // the O(1) statistics equal a count over At().
  Canvas canvas(37, 23);
  Rng rng(17);
  auto coord = [&] { return rng.UniformDouble(-0.2, 1.2); };
  for (int call = 0; call < 3000; ++call) {
    switch (rng.Uniform(20)) {
      case 1:
      case 2:
        canvas.DrawLine(coord(), coord(), coord(), coord());
        break;
      case 3:
      case 4: {
        const double x = coord(), y = coord();
        canvas.FillRect({x, y, x + rng.UniformDouble(0.0, 0.3),
                         y + rng.UniformDouble(0.0, 0.3)});
        break;
      }
      case 5:
        canvas.DrawCircle(coord(), coord(), rng.UniformDouble(0.0, 0.4));
        break;
      default:
        canvas.DrawPoint(coord(), coord());
    }
    uint64_t touched = 0, marks = 0;
    for (int y = 0; y < canvas.height(); ++y) {
      for (int x = 0; x < canvas.width(); ++x) {
        touched += canvas.At(x, y) > 0;
        marks += canvas.At(x, y);
      }
    }
    ASSERT_EQ(canvas.total_marks(), marks) << "call " << call;
    ASSERT_EQ(canvas.pixels_touched(), touched) << "call " << call;
    const double overplot =
        touched ? static_cast<double>(marks) / static_cast<double>(touched)
                : 0.0;
    const double hidden =
        marks ? static_cast<double>(marks - touched) / static_cast<double>(marks)
              : 0.0;
    ASSERT_EQ(canvas.OverplotFactor(), overplot) << "call " << call;
    ASSERT_EQ(canvas.HiddenMarkFraction(), hidden) << "call " << call;
  }
}

TEST(M4Test, BudgetIsFourPerColumn) {
  auto series = workload::RandomWalkSeries(100000, 3);
  auto reduced = M4Downsample(series, 200);
  EXPECT_LE(reduced.size(), 4u * 200u);
  EXPECT_GE(reduced.size(), 200u);
  EXPECT_TRUE(std::is_sorted(reduced.begin(), reduced.end(),
                             [](const Sample& a, const Sample& b) {
                               return a.t < b.t;
                             }));
}

TEST(M4Test, PreservesExtremes) {
  auto series = workload::RandomWalkSeries(50000, 5);
  auto reduced = M4Downsample(series, 100);
  auto min_raw = std::min_element(series.begin(), series.end(),
                                  [](const Sample& a, const Sample& b) {
                                    return a.v < b.v;
                                  });
  auto max_raw = std::max_element(series.begin(), series.end(),
                                  [](const Sample& a, const Sample& b) {
                                    return a.v < b.v;
                                  });
  bool has_min = false, has_max = false;
  for (const Sample& s : reduced) {
    if (s.v == min_raw->v) has_min = true;
    if (s.v == max_raw->v) has_max = true;
  }
  EXPECT_TRUE(has_min);
  EXPECT_TRUE(has_max);
  // Stride downsampling to the same budget loses the extremes (almost
  // surely on a 50k random walk).
  auto strided = StrideDownsample(series, reduced.size());
  bool stride_has_min = false;
  for (const Sample& s : strided) {
    if (s.v == min_raw->v) stride_has_min = true;
  }
  EXPECT_FALSE(stride_has_min);
}

/// The M4 guarantee: rendering the reduced series touches (nearly) the
/// same pixels as rendering every raw point.
TEST(M4Test, PixelErrorIsTiny) {
  auto series = workload::RandomWalkSeries(200000, 7);
  const int width = 400, height = 300;
  Canvas raw(width, height), reduced(width, height);
  RenderLineChart(&raw, series);
  RenderLineChart(&reduced, M4Downsample(series, width));

  uint64_t differing = 0;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      bool a = raw.At(x, y) > 0;
      bool b = reduced.At(x, y) > 0;
      if (a != b) ++differing;
    }
  }
  double error = static_cast<double>(differing) /
                 static_cast<double>(raw.pixels_touched());
  EXPECT_LT(error, 0.02) << "M4 should be (near) pixel-perfect";
}

TEST(M4Test, EmptyAndDegenerate) {
  EXPECT_TRUE(M4Downsample({}, 100).empty());
  std::vector<Sample> one = {{5.0, 2.0}};
  auto r = M4Downsample(one, 100);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r[0].v, 2.0);
}

TEST(RenderersTest, ScatterDrawsAllPoints) {
  Canvas canvas(200, 200);
  std::vector<geo::Point> points;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    points.push_back({rng.UniformDouble(), rng.UniformDouble()});
  }
  RenderStats stats = RenderScatter(&canvas, points);
  EXPECT_EQ(stats.elements_drawn, 500u);
  EXPECT_EQ(stats.input_size, 500u);
  EXPECT_GT(canvas.pixels_touched(), 300u);
}

TEST(RenderersTest, BarsAndTimeline) {
  Canvas canvas(100, 100);
  RenderStats bars = RenderBars(&canvas, {1, 5, 3, 8});
  EXPECT_EQ(bars.elements_drawn, 4u);
  EXPECT_GT(canvas.pixels_touched(), 100u);

  Canvas c2(100, 100);
  RenderStats timeline = RenderTimeline(&c2, {0.0, 1.0, 1.0, 2.0, 10.0});
  EXPECT_EQ(timeline.elements_drawn, 5u);
}

TEST(RenderersTest, ClusteredMapBoundsElements) {
  Rng rng(9);
  std::vector<GeoPoint> points;
  for (int i = 0; i < 50000; ++i) {
    points.push_back({rng.UniformDouble(-180, 180),
                      rng.UniformDouble(-90, 90)});
  }
  Canvas canvas(200, 100);
  RenderStats stats = RenderClusteredMap(&canvas, points, 16);
  EXPECT_EQ(stats.input_size, 50000u);
  EXPECT_LE(stats.elements_drawn, 16u * 16u);
  EXPECT_GT(stats.elements_drawn, 100u);  // uniform data fills most cells
  // Clustered markers at the same budget: empty input is safe too.
  Canvas empty(10, 10);
  EXPECT_EQ(RenderClusteredMap(&empty, {}, 16).elements_drawn, 0u);
}

TEST(RenderersTest, MapProjectsIntoBounds) {
  Canvas canvas(100, 50);
  RenderStats stats =
      RenderMap(&canvas, {{-74.0, 40.7}, {151.2, -33.9}, {0.0, 0.0}});
  EXPECT_EQ(stats.elements_drawn, 3u);
  EXPECT_EQ(canvas.pixels_touched(), 3u);
}

TEST(TreemapTest, CellsTileTheAreaProportionally) {
  std::vector<double> weights = {50, 30, 15, 5};
  auto cells = SquarifiedTreemap(weights, {0, 0, 1, 1});
  ASSERT_EQ(cells.size(), 4u);
  double total_area = 0;
  for (const auto& cell : cells) {
    total_area += cell.rect.Area();
    EXPECT_GE(cell.rect.min_x, -1e-9);
    EXPECT_LE(cell.rect.max_x, 1.0 + 1e-9);
  }
  EXPECT_NEAR(total_area, 1.0, 1e-6);
  // Area proportional to weight.
  for (const auto& cell : cells) {
    EXPECT_NEAR(cell.rect.Area(), cell.weight / 100.0, 1e-6);
  }
  // No overlaps (pairwise intersection area ~ 0).
  for (size_t i = 0; i < cells.size(); ++i) {
    for (size_t j = i + 1; j < cells.size(); ++j) {
      geo::Rect a = cells[i].rect, b = cells[j].rect;
      double ox = std::max(0.0, std::min(a.max_x, b.max_x) -
                                    std::max(a.min_x, b.min_x));
      double oy = std::max(0.0, std::min(a.max_y, b.max_y) -
                                    std::max(a.min_y, b.min_y));
      EXPECT_LT(ox * oy, 1e-9) << "cells " << i << " and " << j << " overlap";
    }
  }
}

TEST(TreemapTest, AspectRatiosAreReasonable) {
  std::vector<double> weights(20, 5.0);
  auto cells = SquarifiedTreemap(weights, {0, 0, 1, 1});
  ASSERT_EQ(cells.size(), 20u);
  for (const auto& cell : cells) {
    double w = cell.rect.Width(), h = cell.rect.Height();
    double aspect = std::max(w / h, h / w);
    EXPECT_LT(aspect, 4.0);
  }
}

TEST(SvgTest, ProducesValidishDocument) {
  SvgWriter svg(200, 100);
  svg.Circle(0.5, 0.5, 3.0);
  svg.Line(0, 0, 1, 1);
  svg.Rect({0.1, 0.1, 0.2, 0.2});
  std::string doc = svg.ToString();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_EQ(svg.num_elements(), 3u);
  // y-flip: circle at unit y=0.5 lands at pixel y=50.
  EXPECT_NE(doc.find("cy=\"50.00\""), std::string::npos);
}

}  // namespace
}  // namespace lodviz::viz
