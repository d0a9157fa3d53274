#ifndef LODVIZ_HIER_HETREE_H_
#define LODVIZ_HIER_HETREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "rdf/triple_source.h"

namespace lodviz::hier {

/// Exact statistics of a tree node's value range.
struct NodeStats {
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean = 0.0;
  double variance = 0.0;
};

/// One (value, object) item: e.g. (age value, person term id).
struct Item {
  double value = 0.0;
  uint64_t object = 0;
};

/// HETree [25, 26]: the hierarchical aggregation model behind SynopsViz —
/// a balanced tree over one numeric/temporal property where each node
/// summarizes a value range with exact statistics, enabling multilevel
/// visual exploration (overview first, zoom/drill on demand) of datasets
/// far larger than the screen.
///
/// Two constructions:
///  - HETree-C (content-based): leaves hold equal numbers of objects;
///    good for skewed data (equi-depth semantics).
///  - HETree-R (range-based): each level splits the value range into
///    equal sub-ranges (equi-width semantics); good for uniform axes.
///
/// Incremental construction (ICO): nodes materialize lazily as the user
/// drills down, so the cost of "show me the overview, then zoom twice" is
/// O(n + visited) after one sort, not a full-tree build.
///
/// Adaptation (ADA): Adapt() re-parameterizes (kind/fanout/leaf size)
/// reusing the sorted item array and prefix sums — no re-sort, no re-scan.
class HETree {
 public:
  enum class Kind { kContent, kRange };

  struct Options {
    Kind kind = Kind::kContent;
    /// Children per internal node.
    size_t fanout = 4;
    /// Max items in a leaf.
    size_t leaf_capacity = 32;
    /// false = fully materialize at build; true = ICO lazy materialization.
    bool lazy = false;
  };

  using NodeId = uint32_t;
  static constexpr NodeId kNoNode = ~NodeId(0);

  struct Node {
    double lo = 0.0;           ///< value range [lo, hi]
    double hi = 0.0;
    size_t first = 0;          ///< item index range [first, last)
    size_t last = 0;
    NodeStats stats;
    bool is_leaf = false;
    bool children_materialized = false;
    std::vector<NodeId> children;
    NodeId parent = kNoNode;
    uint32_t depth = 0;
  };

  /// Builds over `items`, sorted internally by (value, object) so that
  /// equal values order alike on every thread count. Non-finite values
  /// (NaN, INF, -INF) are dropped; at least one item must remain.
  static Result<HETree> Build(std::vector<Item> items, const Options& options);

  /// Builds over the finite numeric (or temporal, as epoch seconds)
  /// objects of `predicate`, with subjects as item objects: the same tree
  /// as Build over those items. The `{?, p, ?}` scan delivers each
  /// object's subjects together and ascending, so each distinct object is
  /// decoded once and only the groups are sorted by value, not the items.
  static Result<HETree> BuildFromProperty(const rdf::TripleSource& source,
                                          rdf::TermId predicate,
                                          const Options& options);

  NodeId root() const { return 0; }
  const Node& node(NodeId id) const { return nodes_[id]; }
  const Options& options() const { return options_; }
  size_t num_items() const { return data_->items.size(); }

  /// Children of `id`, materializing them first if this is a lazy tree
  /// (the ICO "user drills down" operation).
  const std::vector<NodeId>& Children(NodeId id);

  /// Number of nodes materialized so far (ICO cost metric).
  size_t materialized_nodes() const { return nodes_.size(); }

  /// Exact statistics over the value interval [lo, hi], computed from
  /// prefix sums in O(log n) — independent of materialization state.
  [[nodiscard]] NodeStats RangeStats(double lo, double hi) const;

  /// Items of a leaf (drill-to-detail).
  [[nodiscard]] std::vector<Item> LeafItems(NodeId id) const;

  /// ADA: re-parameterize, sharing the sorted data (no re-sort). The
  /// returned tree is lazy regardless of `new_options.lazy` until nodes
  /// are visited, which is what makes adaptation cheap.
  HETree Adapt(const Options& new_options) const;

 private:
  /// Sorted items + prefix aggregates, shared across adaptations.
  struct SortedData {
    std::vector<Item> items;       // ascending by (value, object)
    std::vector<double> prefix_sum;    // size n+1
    std::vector<double> prefix_sumsq;  // size n+1
  };

  HETree(std::shared_ptr<const SortedData> data, const Options& options);

  /// The build after the sort: argument checks, the `hier.hetree.*`
  /// counters, prefix sums and the tree over `items`, which are already
  /// ascending by (value, object) and all finite.
  static Result<HETree> BuildSorted(std::vector<Item> items,
                                    const Options& options);

  NodeStats StatsForItemRange(size_t first, size_t last) const;
  size_t LowerBound(double value) const;  // first index with value >= v
  size_t UpperBound(double value) const;  // first index with value > v
  /// Pure split of `parent` into child nodes (no tree mutation); safe to
  /// call concurrently for distinct nodes of one level.
  [[nodiscard]] std::vector<Node> ComputeChildren(const Node& parent) const;
  /// Appends `children` for node `id` and links them in.
  void AttachChildren(NodeId id, std::vector<Node> children);
  void MaterializeChildren(NodeId id);
  void MaterializeAll();

  std::shared_ptr<const SortedData> data_;
  Options options_;
  std::vector<Node> nodes_;
};

}  // namespace lodviz::hier

#endif  // LODVIZ_HIER_HETREE_H_
