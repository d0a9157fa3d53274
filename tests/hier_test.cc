#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "hier/hetree.h"
#include "rdf/triple_store.h"

namespace lodviz::hier {
namespace {

std::vector<Item> UniformItems(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Item> items(n);
  for (size_t i = 0; i < n; ++i) {
    items[i] = {rng.UniformDouble(0, 100), i};
  }
  return items;
}

HETree::Options ContentOpts(bool lazy = false) {
  HETree::Options o;
  o.kind = HETree::Kind::kContent;
  o.fanout = 4;
  o.leaf_capacity = 16;
  o.lazy = lazy;
  return o;
}

HETree::Options RangeOpts(bool lazy = false) {
  HETree::Options o = ContentOpts(lazy);
  o.kind = HETree::Kind::kRange;
  return o;
}

TEST(HETreeTest, RootSummarizesEverything) {
  auto tree = HETree::Build(UniformItems(1000, 1), ContentOpts());
  ASSERT_TRUE(tree.ok());
  const auto& root = tree->node(tree->root());
  EXPECT_EQ(root.stats.count, 1000u);
  EXPECT_NEAR(root.stats.mean, 50.0, 3.0);
  EXPECT_GE(root.stats.min, 0.0);
  EXPECT_LE(root.stats.max, 100.0);
}

TEST(HETreeTest, BuildRejectsBadInput) {
  EXPECT_FALSE(HETree::Build({}, ContentOpts()).ok());
  HETree::Options bad = ContentOpts();
  bad.fanout = 1;
  EXPECT_FALSE(HETree::Build(UniformItems(10, 1), bad).ok());
}

/// Children partition their parent and their stats roll up exactly —
/// for both tree kinds.
class HETreeInvariants
    : public ::testing::TestWithParam<std::tuple<HETree::Kind, size_t>> {};

TEST_P(HETreeInvariants, ChildrenPartitionParent) {
  auto [kind, n] = GetParam();
  HETree::Options opts = kind == HETree::Kind::kContent ? ContentOpts()
                                                        : RangeOpts();
  auto tree_r = HETree::Build(UniformItems(n, 7 + n), opts);
  ASSERT_TRUE(tree_r.ok());
  HETree& tree = tree_r.ValueOrDie();

  // BFS over all materialized nodes.
  std::vector<HETree::NodeId> queue = {tree.root()};
  while (!queue.empty()) {
    HETree::NodeId id = queue.back();
    queue.pop_back();
    const auto& node = tree.node(id);
    if (node.is_leaf) {
      EXPECT_LE(node.stats.count,
                std::max<uint64_t>(opts.leaf_capacity, 1))
          << "leaf too big (content trees only)";
      continue;
    }
    auto children = tree.Children(id);
    ASSERT_FALSE(children.empty());
    uint64_t child_count = 0;
    double child_sum = 0.0;
    size_t expected_first = node.first;
    for (HETree::NodeId c : children) {
      const auto& child = tree.node(c);
      EXPECT_EQ(child.first, expected_first) << "gap in item ranges";
      expected_first = child.last;
      child_count += child.stats.count;
      child_sum += child.stats.sum;
      EXPECT_EQ(child.parent, id);
      EXPECT_EQ(child.depth, node.depth + 1);
      queue.push_back(c);
    }
    EXPECT_EQ(expected_first, node.last);
    EXPECT_EQ(child_count, node.stats.count);
    EXPECT_NEAR(child_sum, node.stats.sum, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, HETreeInvariants,
    ::testing::Combine(::testing::Values(HETree::Kind::kContent,
                                         HETree::Kind::kRange),
                       ::testing::Values<size_t>(5, 64, 1000, 5000)));

TEST(HETreeTest, ContentLeavesAreBalanced) {
  auto tree = HETree::Build(UniformItems(1024, 3), ContentOpts());
  ASSERT_TRUE(tree.ok());
  // Collect all leaves.
  std::vector<HETree::NodeId> queue = {tree->root()};
  std::vector<uint64_t> leaf_sizes;
  while (!queue.empty()) {
    auto id = queue.back();
    queue.pop_back();
    if (tree->node(id).is_leaf) {
      leaf_sizes.push_back(tree->node(id).stats.count);
      continue;
    }
    for (auto c : tree->Children(id)) queue.push_back(c);
  }
  uint64_t lo = *std::min_element(leaf_sizes.begin(), leaf_sizes.end());
  uint64_t hi = *std::max_element(leaf_sizes.begin(), leaf_sizes.end());
  EXPECT_LE(hi - lo, 1u);  // equal content split
}

TEST(HETreeTest, RangeChildrenHaveEqualWidths) {
  auto tree = HETree::Build(UniformItems(4000, 5), RangeOpts());
  ASSERT_TRUE(tree.ok());
  auto children = tree->Children(tree->root());
  ASSERT_GE(children.size(), 2u);
  double width = tree->node(children[0]).hi - tree->node(children[0]).lo;
  for (auto c : children) {
    EXPECT_NEAR(tree->node(c).hi - tree->node(c).lo, width, width * 0.01);
  }
}

TEST(HETreeTest, SingleValueDataTerminates) {
  std::vector<Item> items(500, Item{42.0, 0});
  for (size_t i = 0; i < items.size(); ++i) items[i].object = i;
  for (auto kind : {HETree::Kind::kContent, HETree::Kind::kRange}) {
    HETree::Options opts = kind == HETree::Kind::kContent ? ContentOpts()
                                                          : RangeOpts();
    auto tree = HETree::Build(items, opts);
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(tree->node(tree->root()).stats.count, 500u);
    EXPECT_GT(tree->materialized_nodes(), 1u);
  }
}

TEST(HETreeTest, RangeStatsExactAgainstNaive) {
  Rng rng(11);
  std::vector<Item> items = UniformItems(5000, 11);
  auto tree = HETree::Build(items, ContentOpts());
  ASSERT_TRUE(tree.ok());
  for (int q = 0; q < 50; ++q) {
    double lo = rng.UniformDouble(0, 90);
    double hi = lo + rng.UniformDouble(0, 10);
    NodeStats got = tree->RangeStats(lo, hi);
    uint64_t count = 0;
    double sum = 0;
    for (const Item& it : items) {
      if (it.value >= lo && it.value <= hi) {
        ++count;
        sum += it.value;
      }
    }
    EXPECT_EQ(got.count, count);
    EXPECT_NEAR(got.sum, sum, 1e-6);
  }
  EXPECT_EQ(tree->RangeStats(50, 40).count, 0u);
}

TEST(HETreeTest, IcoMaterializesOnlyVisitedPath) {
  auto lazy = HETree::Build(UniformItems(100000, 13), ContentOpts(true));
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ(lazy->materialized_nodes(), 1u);  // just the root

  // Drill down one path (what a SynopsViz user does).
  HETree::NodeId current = lazy->root();
  int depth = 0;
  while (!lazy->node(current).is_leaf) {
    current = lazy->Children(current).front();
    ++depth;
  }
  EXPECT_GE(depth, 3);
  // Materialized nodes = fanout per visited level, nowhere near the full
  // tree (~100000/16 leaves alone).
  EXPECT_LE(lazy->materialized_nodes(), 1u + 4u * static_cast<size_t>(depth));

  auto eager = HETree::Build(UniformItems(100000, 13), ContentOpts(false));
  ASSERT_TRUE(eager.ok());
  EXPECT_GT(eager->materialized_nodes(), 1000u);
}

TEST(HETreeTest, AdaptReusesDataAndAgreesWithRebuild) {
  std::vector<Item> items = UniformItems(20000, 19);
  auto original = HETree::Build(items, ContentOpts());
  ASSERT_TRUE(original.ok());

  HETree::Options new_opts = RangeOpts();
  new_opts.fanout = 8;
  HETree adapted = original->Adapt(new_opts);
  // Adaptation materializes nothing but the root.
  EXPECT_EQ(adapted.materialized_nodes(), 1u);

  auto rebuilt = HETree::Build(items, new_opts);
  ASSERT_TRUE(rebuilt.ok());
  // Same structure when materialized the same way.
  auto a_children = adapted.Children(adapted.root());
  auto r_children = rebuilt->Children(rebuilt->root());
  ASSERT_EQ(a_children.size(), r_children.size());
  for (size_t i = 0; i < a_children.size(); ++i) {
    EXPECT_EQ(adapted.node(a_children[i]).stats.count,
              rebuilt->node(r_children[i]).stats.count);
    EXPECT_NEAR(adapted.node(a_children[i]).stats.mean,
                rebuilt->node(r_children[i]).stats.mean, 1e-9);
  }
}

TEST(HETreeTest, LeafItemsRoundTrip) {
  std::vector<Item> items = {{5, 50}, {1, 10}, {3, 30}, {2, 20}, {4, 40}};
  HETree::Options opts = ContentOpts();
  opts.leaf_capacity = 2;
  auto tree = HETree::Build(items, opts);
  ASSERT_TRUE(tree.ok());
  // Walk to the leftmost leaf: must contain the smallest values.
  HETree::NodeId current = tree->root();
  while (!tree->node(current).is_leaf) {
    current = tree->Children(current).front();
  }
  auto leaf_items = tree->LeafItems(current);
  ASSERT_FALSE(leaf_items.empty());
  EXPECT_DOUBLE_EQ(leaf_items.front().value, 1.0);
  EXPECT_EQ(leaf_items.front().object, 10u);
}

TEST(HETreeTest, BuildFromRdfProperty) {
  rdf::TripleStore store;
  using rdf::Term;
  for (int i = 0; i < 200; ++i) {
    store.Add(Term::Iri("http://x/item" + std::to_string(i)),
              Term::Iri("http://x/price"), Term::DoubleLiteral(10.0 + i));
  }
  // A non-numeric straggler should be skipped, not fail the build.
  store.Add(Term::Iri("http://x/weird"), Term::Iri("http://x/price"),
            Term::Literal("not-a-number-at-all x"));
  rdf::TermId price = store.dict().Lookup(Term::Iri("http://x/price"));
  auto tree = HETree::BuildFromProperty(store, price, ContentOpts());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->node(tree->root()).stats.count, 200u);
  EXPECT_DOUBLE_EQ(tree->node(tree->root()).stats.min, 10.0);

  rdf::TermId missing = store.dict().InternIri("http://x/nothing");
  EXPECT_FALSE(HETree::BuildFromProperty(store, missing, ContentOpts()).ok());
}

TEST(HETreeTest, TemporalPropertySupported) {
  rdf::TripleStore store;
  using rdf::Term;
  for (int i = 0; i < 50; ++i) {
    store.Add(Term::Iri("http://x/e" + std::to_string(i)),
              Term::Iri("http://x/date"),
              Term::DateTimeLiteral(1000000000 + i * 86400LL));
  }
  rdf::TermId date = store.dict().Lookup(Term::Iri("http://x/date"));
  auto tree = HETree::BuildFromProperty(store, date, RangeOpts());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->node(tree->root()).stats.count, 50u);
  EXPECT_DOUBLE_EQ(tree->node(tree->root()).stats.min, 1000000000.0);
}

}  // namespace
}  // namespace lodviz::hier
