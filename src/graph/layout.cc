#include "graph/layout.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "exec/parallel.h"

namespace lodviz::graph {

namespace {

void NormalizeToUnitSquare(Layout* layout) {
  if (layout->empty()) return;
  geo::Rect bounds = geo::Rect::Empty();
  for (const geo::Point& p : *layout) bounds.Expand(p);
  double w = std::max(bounds.Width(), 1e-9);
  double h = std::max(bounds.Height(), 1e-9);
  for (geo::Point& p : *layout) {
    p.x = (p.x - bounds.min_x) / w;
    p.y = (p.y - bounds.min_y) / h;
  }
}

}  // namespace

Layout ForceDirectedLayout(const Graph& g, const ForceLayoutOptions& options) {
  NodeId n = g.num_nodes();
  Layout pos(n);
  Rng rng(options.seed);
  for (geo::Point& p : pos) {
    p.x = rng.UniformDouble();
    p.y = rng.UniformDouble();
  }
  if (n <= 1) return pos;

  const double area = 1.0;
  const double k = std::sqrt(area / static_cast<double>(n));  // ideal length
  std::vector<geo::Point> disp(n);
  double temperature = 0.1;
  const double cooling = std::pow(0.01 / temperature,
                                  1.0 / std::max(1, options.iterations));

  const bool exact = n <= options.exact_repulsion_limit;
  // Grid for approximate repulsion: cell size ~ 2k, only near cells repel.
  const double cell = std::max(2.0 * k, 1e-6);
  const int grid_n = std::max(1, static_cast<int>(1.0 / cell));

  for (int iter = 0; iter < options.iterations; ++iter) {
    for (geo::Point& d : disp) d = {0.0, 0.0};

    auto repel = [&](NodeId i, NodeId j) {
      double dx = pos[i].x - pos[j].x;
      double dy = pos[i].y - pos[j].y;
      double dist2 = dx * dx + dy * dy + 1e-12;
      double dist = std::sqrt(dist2);
      double force = k * k / dist;
      disp[i].x += dx / dist * force;
      disp[i].y += dy / dist * force;
      disp[j].x -= dx / dist * force;
      disp[j].y -= dy / dist * force;
    };

    // One-sided repulsion: accumulates only into disp[i], so each node can
    // be computed independently. a-b == -(b-a) exactly in IEEE arithmetic,
    // so the per-node sum matches the pairwise update term for term.
    auto repel_into = [&](NodeId i, NodeId j) {
      double dx = pos[i].x - pos[j].x;
      double dy = pos[i].y - pos[j].y;
      double dist2 = dx * dx + dy * dy + 1e-12;
      double dist = std::sqrt(dist2);
      double force = k * k / dist;
      disp[i].x += dx / dist * force;
      disp[i].y += dy / dist * force;
    };

    if (exact) {
      if (exec::SerialMode()) {
        for (NodeId i = 0; i < n; ++i) {
          for (NodeId j = i + 1; j < n; ++j) repel(i, j);
        }
      } else {
        exec::ParallelFor(0, n, 128, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            for (NodeId j = 0; j < n; ++j) {
              if (j != i) repel_into(static_cast<NodeId>(i), j);
            }
          }
        });
      }
    } else {
      std::unordered_map<uint64_t, std::vector<NodeId>> grid;
      auto cell_of = [&](const geo::Point& p) {
        int cx = std::clamp(static_cast<int>(p.x / cell), 0, grid_n - 1);
        int cy = std::clamp(static_cast<int>(p.y / cell), 0, grid_n - 1);
        return std::make_pair(cx, cy);
      };
      auto key = [](int cx, int cy) {
        return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
               static_cast<uint32_t>(cy);
      };
      for (NodeId i = 0; i < n; ++i) {
        auto [cx, cy] = cell_of(pos[i]);
        grid[key(cx, cy)].push_back(i);
      }
      if (exec::SerialMode()) {
        for (NodeId i = 0; i < n; ++i) {
          auto [cx, cy] = cell_of(pos[i]);
          for (int dx = -1; dx <= 1; ++dx) {
            for (int dy = -1; dy <= 1; ++dy) {
              int nx = cx + dx, ny = cy + dy;
              if (nx < 0 || ny < 0 || nx >= grid_n || ny >= grid_n) continue;
              auto it = grid.find(key(nx, ny));
              if (it == grid.end()) continue;
              for (NodeId j : it->second) {
                if (j > i) repel(i, j);
              }
            }
          }
        }
      } else {
        exec::ParallelFor(0, n, 256, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) {
            auto [cx, cy] = cell_of(pos[i]);
            for (int dx = -1; dx <= 1; ++dx) {
              for (int dy = -1; dy <= 1; ++dy) {
                int nx = cx + dx, ny = cy + dy;
                if (nx < 0 || ny < 0 || nx >= grid_n || ny >= grid_n) continue;
                auto it = grid.find(key(nx, ny));
                if (it == grid.end()) continue;
                for (NodeId j : it->second) {
                  if (j != i) repel_into(static_cast<NodeId>(i), j);
                }
              }
            }
          }
        });
      }
    }

    // Attraction along edges.
    for (const auto& [u, v] : g.edges()) {
      double dx = pos[u].x - pos[v].x;
      double dy = pos[u].y - pos[v].y;
      double dist = std::sqrt(dx * dx + dy * dy) + 1e-12;
      double force = dist * dist / k;
      disp[u].x -= dx / dist * force;
      disp[u].y -= dy / dist * force;
      disp[v].x += dx / dist * force;
      disp[v].y += dy / dist * force;
    }

    // Apply displacements, capped by temperature.
    for (NodeId i = 0; i < n; ++i) {
      double len = std::sqrt(disp[i].x * disp[i].x + disp[i].y * disp[i].y);
      if (len < 1e-12) continue;
      double capped = std::min(len, temperature);
      pos[i].x += disp[i].x / len * capped;
      pos[i].y += disp[i].y / len * capped;
      pos[i].x = std::clamp(pos[i].x, 0.0, 1.0);
      pos[i].y = std::clamp(pos[i].y, 0.0, 1.0);
    }
    temperature *= cooling;
  }
  NormalizeToUnitSquare(&pos);
  return pos;
}

Layout CircularLayout(const Graph& g) {
  NodeId n = g.num_nodes();
  Layout pos(n);
  for (NodeId i = 0; i < n; ++i) {
    double angle = 2.0 * M_PI * static_cast<double>(i) /
                   std::max<double>(1.0, static_cast<double>(n));
    pos[i] = {0.5 + 0.5 * std::cos(angle), 0.5 + 0.5 * std::sin(angle)};
  }
  return pos;
}

size_t ForceLayoutMemoryBytes(NodeId n) {
  // positions + displacement vectors + adjacency working set.
  return static_cast<size_t>(n) * (2 * sizeof(geo::Point));
}

}  // namespace lodviz::graph
