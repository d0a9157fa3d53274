#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "graph/bundling.h"
#include "graph/clustering.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/layout.h"
#include "graph/sampling.h"
#include "graph/supergraph.h"
#include "rdf/triple_store.h"

namespace lodviz::graph {
namespace {

Graph Triangle() { return Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(GraphTest, BasicCsr) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}, {1, 1}, {1, 0}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);  // self loop + duplicate removed
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
  auto nbrs = g.Neighbors(1);
  EXPECT_EQ((std::vector<NodeId>(nbrs.begin(), nbrs.end())),
            (std::vector<NodeId>{0, 2}));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.5);
  EXPECT_EQ(g.MaxDegree(), 2u);
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, FromTripleStoreDropsLiterals) {
  rdf::TripleStore store;
  using rdf::Term;
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/p"),
            Term::Iri("http://x/b"));
  store.Add(Term::Iri("http://x/b"), Term::Iri("http://x/p"),
            Term::Iri("http://x/c"));
  store.Add(Term::Iri("http://x/a"), Term::Iri("http://x/age"),
            Term::IntLiteral(5));  // literal: not an edge
  Graph g = Graph::FromSource(store);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphTest, InducedSubgraph) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  Graph sub = g.InducedSubgraph({0, 1, 2});
  EXPECT_EQ(sub.num_nodes(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);  // 0-1, 1-2 survive
}

TEST(GeneratorsTest, BarabasiAlbertIsHeavyTailed) {
  Graph g = BarabasiAlbert(2000, 3, 5);
  EXPECT_EQ(g.num_nodes(), 2000u);
  EXPECT_GT(g.num_edges(), 3000u);
  // Heavy tail: max degree far above average.
  EXPECT_GT(static_cast<double>(g.MaxDegree()), 5.0 * g.AverageDegree());
}

TEST(GeneratorsTest, WattsStrogatzDegrees) {
  Graph g = WattsStrogatz(300, 6, 0.1, 9);
  EXPECT_EQ(g.num_nodes(), 300u);
  // Ring lattice baseline has exactly nk/2 edges; rewiring keeps it close.
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 900.0, 60.0);
}

TEST(GeneratorsTest, Deterministic) {
  Graph a = BarabasiAlbert(100, 2, 42);
  Graph b = BarabasiAlbert(100, 2, 42);
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(ClusteringTest, ModularityOfPerfectSplit) {
  // Two disjoint triangles: the 2-cluster split has modularity 1/2.
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  Clustering c = Densify({0, 0, 0, 1, 1, 1});
  EXPECT_NEAR(Modularity(g, c), 0.5, 1e-12);
  Clustering all_one = Densify({0, 0, 0, 0, 0, 0});
  EXPECT_NEAR(Modularity(g, all_one), 0.0, 1e-12);
}

class CommunityRecovery : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CommunityRecovery, LouvainRecoversPlantedPartition) {
  Graph g = PlantedPartition(4, 30, 0.5, 0.01, GetParam());
  Clustering c = LouvainClustering(g, GetParam());
  // Should find ~4 clusters with high modularity.
  EXPECT_GE(c.num_clusters, 3u);
  EXPECT_LE(c.num_clusters, 8u);
  EXPECT_GT(Modularity(g, c), 0.5);
  // Nodes of the same planted block should mostly share a cluster.
  size_t agree = 0, total = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (u / 30 != v / 30) continue;
      ++total;
      if (c.assignment[u] == c.assignment[v]) ++agree;
    }
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommunityRecovery, ::testing::Values(1, 2, 3));

TEST(ClusteringTest, LouvainImprovesOverSingletons) {
  Graph g = BarabasiAlbert(500, 3, 11);
  Clustering c = LouvainClustering(g, 11);
  std::vector<NodeId> singleton(g.num_nodes());
  std::iota(singleton.begin(), singleton.end(), 0);
  EXPECT_GT(Modularity(g, c), Modularity(g, Densify(std::move(singleton))));
  EXPECT_LT(c.num_clusters, g.num_nodes());
}

TEST(HierarchyTest, BuildsReducingLevels) {
  Graph g = BarabasiAlbert(2000, 2, 13);
  GraphHierarchy::Options opts;
  opts.target_top_nodes = 32;
  GraphHierarchy h = GraphHierarchy::Build(g, opts);
  ASSERT_GE(h.num_levels(), 2u);
  // Levels strictly shrink and the top respects the budget (or coarsening
  // stalled, which Build guards against via the forced merge).
  for (size_t l = 1; l < h.num_levels(); ++l) {
    EXPECT_LT(h.level(l).graph.num_nodes(), h.level(l - 1).graph.num_nodes());
  }
  EXPECT_LE(h.top().graph.num_nodes(), 64u);  // close to budget

  // Base node counts are conserved at every level.
  for (size_t l = 0; l < h.num_levels(); ++l) {
    uint64_t total = 0;
    for (uint64_t c : h.level(l).base_node_counts) total += c;
    EXPECT_EQ(total, 2000u) << "level " << l;
  }
}

TEST(HierarchyTest, BaseMembersPartitionTheGraph) {
  Graph g = PlantedPartition(3, 20, 0.6, 0.02, 17);
  GraphHierarchy::Options opts;
  opts.target_top_nodes = 4;
  GraphHierarchy h = GraphHierarchy::Build(g, opts);
  const AbstractionLevel& top = h.top();
  std::set<NodeId> seen;
  for (NodeId u = 0; u < top.graph.num_nodes(); ++u) {
    // Descend through each level's member lists to the base nodes.
    std::vector<NodeId> frontier = {u};
    for (size_t l = h.num_levels() - 1; l > 0; --l) {
      std::vector<NodeId> below;
      for (NodeId node : frontier) {
        const std::vector<NodeId>& members = h.level(l).members[node];
        below.insert(below.end(), members.begin(), members.end());
      }
      frontier = std::move(below);
    }
    for (NodeId base : frontier) {
      EXPECT_TRUE(seen.insert(base).second) << "node in two super-nodes";
    }
  }
  EXPECT_EQ(seen.size(), 60u);
}

TEST(HierarchyTest, ExpandNodeReturnsSubgraph) {
  Graph g = PlantedPartition(2, 25, 0.5, 0.01, 19);
  GraphHierarchy::Options opts;
  opts.target_top_nodes = 2;
  GraphHierarchy h = GraphHierarchy::Build(g, opts);
  size_t top_level = h.num_levels() - 1;
  Graph expanded = h.ExpandNode(top_level, 0);
  EXPECT_GT(expanded.num_nodes(), 0u);
  EXPECT_LE(expanded.num_nodes(), h.level(top_level - 1).graph.num_nodes());
}

class SamplerContract : public ::testing::TestWithParam<int> {};

TEST_P(SamplerContract, RespectsTargetAndValidity) {
  Graph g = BarabasiAlbert(1000, 3, 23);
  size_t target = 150;
  std::vector<std::vector<NodeId>> samples = {
      ForestFireSample(g, target, GetParam()),
  };
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    EXPECT_LE(s.size(), target + 1) << "sampler " << i;
    EXPECT_GE(s.size(), target / 2) << "sampler " << i;
    // Valid, unique, sorted node ids.
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end());
    for (NodeId u : s) EXPECT_LT(u, g.num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplerContract, ::testing::Values(1, 7, 99));

TEST(SamplerTest, WholeGraphWhenTargetExceedsSize) {
  Graph g = Triangle();
  EXPECT_EQ(ForestFireSample(g, 100, 1).size(), 3u);
}

TEST(LayoutTest, PositionsInUnitSquare) {
  Graph g = BarabasiAlbert(200, 2, 37);
  ForceLayoutOptions opts;
  opts.iterations = 20;
  Layout layout = ForceDirectedLayout(g, opts);
  ASSERT_EQ(layout.size(), 200u);
  for (const geo::Point& p : layout) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

TEST(LayoutTest, ForceLayoutPullsNeighborsCloserThanRandom) {
  Graph g = PlantedPartition(3, 15, 0.6, 0.02, 41);
  ForceLayoutOptions opts;
  opts.iterations = 80;
  opts.seed = 3;
  Layout fr = ForceDirectedLayout(g, opts);

  // Random baseline layout.
  Rng rng(123);
  Layout random(g.num_nodes());
  for (auto& p : random) p = {rng.UniformDouble(), rng.UniformDouble()};

  // Mean squared distance between adjacent nodes: lower is tighter.
  auto mean_edge_length_sq = [&g](const Layout& layout) {
    double total = 0.0;
    for (const auto& [u, v] : g.edges()) {
      total += geo::DistanceSq(layout[u], layout[v]);
    }
    return total / static_cast<double>(g.edges().size());
  };
  EXPECT_LT(mean_edge_length_sq(fr), mean_edge_length_sq(random));
}

TEST(LayoutTest, CheapLayoutsAreValid) {
  Graph g = BarabasiAlbert(50, 2, 43);
  Layout circular = CircularLayout(g);
  EXPECT_EQ(circular.size(), 50u);
  // Circular layout keeps all nodes distinct.
  std::set<std::pair<double, double>> unique;
  for (const auto& p : circular) unique.insert({p.x, p.y});
  EXPECT_EQ(unique.size(), 50u);
}

TEST(LayoutTest, ApproximateRepulsionStillWorks) {
  Graph g = BarabasiAlbert(3000, 2, 47);
  ForceLayoutOptions opts;
  opts.iterations = 5;
  opts.exact_repulsion_limit = 100;  // force the grid path
  Layout layout = ForceDirectedLayout(g, opts);
  EXPECT_EQ(layout.size(), 3000u);
}

TEST(BundlingTest, ParallelEdgesBundleTogether) {
  // Two "stars" connected by many near-parallel edges.
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId left = 10, right = 10;
  for (NodeId i = 0; i < left; ++i) edges.emplace_back(i, left + i % right);
  Graph g = Graph::FromEdges(left + right, edges);
  Layout layout(g.num_nodes());
  // Near-parallel close lines: every pair is compatible, so FDEB should
  // merge them into one bundle through the middle.
  for (NodeId i = 0; i < left; ++i) layout[i] = {0.05, 0.40 + 0.02 * i};
  for (NodeId i = 0; i < right; ++i) layout[left + i] = {0.95, 0.40 + 0.02 * i};

  BundlingOptions opts;
  opts.iterations = 60;
  BundlingResult r = BundleEdges(g, layout, opts);
  EXPECT_GT(r.compatible_pairs, 0u);
  // Bundling must reduce distinct rendered cells (less visual clutter).
  EXPECT_LT(r.distinct_cells_after, r.distinct_cells_before);
  // Endpoints are pinned.
  for (size_t e = 0; e < g.edges().size(); ++e) {
    const auto& [u, v] = g.edges()[e];
    EXPECT_EQ(r.polylines[e].front(), layout[u]);
    EXPECT_EQ(r.polylines[e].back(), layout[v]);
  }
}

TEST(BundlingTest, InkBeforeMatchesStraightLines) {
  Graph g = Triangle();
  Layout layout = {{0, 0}, {1, 0}, {0, 1}};
  BundlingOptions opts;
  opts.iterations = 0;
  BundlingResult r = BundleEdges(g, layout, opts);
  EXPECT_NEAR(r.ink_before, 2.0 + std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(r.ink_after, r.ink_before, 1e-9);
}

TEST(BundlingTest, CountDistinctCells) {
  // A horizontal line across the unit square touches ~resolution cells.
  Polyline line = {{0.0, 0.5}, {1.0, 0.5}};
  uint64_t cells = CountDistinctCells({line}, 64);
  EXPECT_GE(cells, 60u);
  EXPECT_LE(cells, 66u);
}

}  // namespace
}  // namespace lodviz::graph
