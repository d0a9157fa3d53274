#ifndef LODVIZ_GEO_RTREE_H_
#define LODVIZ_GEO_RTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "geo/geometry.h"

namespace lodviz::geo {

/// An R-tree over (rect, id) entries with quadratic-split insertion and
/// STR (sort-tile-recursive) bulk loading.
///
/// This is the spatial access method behind graphVizdb-style interactive
/// graph exploration [22, 23]: node/edge layouts are indexed once, then
/// pan/zoom becomes a window query touching only the visible portion.
class RTree {
 public:
  struct Entry {
    Rect rect;
    uint64_t id = 0;
  };

  /// `max_entries` per node; min is max/2 rounded down (>= 2).
  explicit RTree(size_t max_entries = 16);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;

  /// Builds a packed tree from all entries at once (STR). Clears any
  /// existing content.
  void BulkLoad(std::vector<Entry> entries);

  /// Inserts one entry.
  void Insert(const Rect& rect, uint64_t id);

  /// Invokes `fn` for every entry whose rect intersects `window`;
  /// return false from `fn` to stop early.
  void Search(const Rect& window,
              const std::function<bool(const Entry&)>& fn) const;

  /// Materializes window-query results.
  [[nodiscard]] std::vector<Entry> SearchAll(const Rect& window) const;

  [[nodiscard]] size_t size() const { return size_; }
  /// Nodes visited by the last Search (perf introspection).
  mutable uint64_t nodes_visited = 0;

 private:
  struct Node {
    bool leaf = true;
    Rect rect = Rect::Empty();
    std::vector<Entry> entries;    // leaf payloads
    std::vector<int32_t> children; // internal children (node indices)
  };

  int32_t NewNode(bool leaf);
  /// Inserts into the subtree at `node_id`; returns the id of a newly
  /// created sibling if the node split, else -1.
  int32_t InsertRec(int32_t node_id, const Entry& entry);
  int32_t SplitNode(int32_t node_id);
  void RecomputeRect(int32_t node_id);
  int ChooseChild(const Node& node, const Rect& rect) const;
  void SearchRec(int32_t node_id, const Rect& window,
                 const std::function<bool(const Entry&)>& fn,
                 bool* keep_going) const;

  size_t max_entries_;
  size_t min_entries_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  size_t size_ = 0;
};

}  // namespace lodviz::geo

#endif  // LODVIZ_GEO_RTREE_H_
