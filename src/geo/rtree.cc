#include "geo/rtree.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lodviz::geo {

RTree::RTree(size_t max_entries)
    : max_entries_(std::max<size_t>(4, max_entries)),
      min_entries_(std::max<size_t>(2, max_entries_ / 2)) {}

int32_t RTree::NewNode(bool leaf) {
  nodes_.emplace_back();
  nodes_.back().leaf = leaf;
  return static_cast<int32_t>(nodes_.size() - 1);
}

void RTree::RecomputeRect(int32_t node_id) {
  Node& n = nodes_[node_id];
  n.rect = Rect::Empty();
  if (n.leaf) {
    for (const Entry& e : n.entries) n.rect.Expand(e.rect);
  } else {
    for (int32_t c : n.children) n.rect.Expand(nodes_[c].rect);
  }
}

int RTree::ChooseChild(const Node& node, const Rect& rect) const {
  int best = 0;
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.children.size(); ++i) {
    const Rect& r = nodes_[node.children[i]].rect;
    double enlarge = r.EnlargementFor(rect);
    double area = r.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = static_cast<int>(i);
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

namespace {

/// Quadratic-split seed selection: the pair wasting the most area together.
template <typename GetRect>
std::pair<size_t, size_t> PickSeeds(size_t n, GetRect get) {
  size_t s1 = 0, s2 = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      Rect u = get(i);
      u.Expand(get(j));
      double waste = u.Area() - get(i).Area() - get(j).Area();
      if (waste > worst) {
        worst = waste;
        s1 = i;
        s2 = j;
      }
    }
  }
  return {s1, s2};
}

}  // namespace

int32_t RTree::SplitNode(int32_t node_id) {
  int32_t sibling_id = NewNode(nodes_[node_id].leaf);
  Node& node = nodes_[node_id];
  Node& sibling = nodes_[sibling_id];

  if (node.leaf) {
    std::vector<Entry> all = std::move(node.entries);
    node.entries.clear();
    auto [s1, s2] =
        PickSeeds(all.size(), [&](size_t i) { return all[i].rect; });
    Rect r1 = all[s1].rect, r2 = all[s2].rect;
    node.entries.push_back(all[s1]);
    sibling.entries.push_back(all[s2]);
    for (size_t i = 0; i < all.size(); ++i) {
      if (i == s1 || i == s2) continue;
      // Force balance so both halves meet the minimum fill.
      size_t remaining =
          (all.size() - i) - (s1 >= i ? 1 : 0) - (s2 >= i ? 1 : 0);
      if (node.entries.size() + remaining <= min_entries_) {
        node.entries.push_back(all[i]);
        r1.Expand(all[i].rect);
        continue;
      }
      if (sibling.entries.size() + remaining <= min_entries_) {
        sibling.entries.push_back(all[i]);
        r2.Expand(all[i].rect);
        continue;
      }
      if (r1.EnlargementFor(all[i].rect) <= r2.EnlargementFor(all[i].rect)) {
        node.entries.push_back(all[i]);
        r1.Expand(all[i].rect);
      } else {
        sibling.entries.push_back(all[i]);
        r2.Expand(all[i].rect);
      }
    }
  } else {
    std::vector<int32_t> all = std::move(node.children);
    node.children.clear();
    auto [s1, s2] =
        PickSeeds(all.size(), [&](size_t i) { return nodes_[all[i]].rect; });
    Rect r1 = nodes_[all[s1]].rect, r2 = nodes_[all[s2]].rect;
    node.children.push_back(all[s1]);
    sibling.children.push_back(all[s2]);
    for (size_t i = 0; i < all.size(); ++i) {
      if (i == s1 || i == s2) continue;
      size_t remaining =
          (all.size() - i) - (s1 >= i ? 1 : 0) - (s2 >= i ? 1 : 0);
      const Rect& r = nodes_[all[i]].rect;
      if (node.children.size() + remaining <= min_entries_) {
        node.children.push_back(all[i]);
        r1.Expand(r);
        continue;
      }
      if (sibling.children.size() + remaining <= min_entries_) {
        sibling.children.push_back(all[i]);
        r2.Expand(r);
        continue;
      }
      if (r1.EnlargementFor(r) <= r2.EnlargementFor(r)) {
        node.children.push_back(all[i]);
        r1.Expand(r);
      } else {
        sibling.children.push_back(all[i]);
        r2.Expand(r);
      }
    }
  }
  RecomputeRect(node_id);
  RecomputeRect(sibling_id);
  return sibling_id;
}

int32_t RTree::InsertRec(int32_t node_id, const Entry& entry) {
  Node& node = nodes_[node_id];
  if (node.leaf) {
    node.entries.push_back(entry);
    node.rect.Expand(entry.rect);
    if (node.entries.size() > max_entries_) return SplitNode(node_id);
    return -1;
  }
  int child_pos = ChooseChild(node, entry.rect);
  int32_t child_id = node.children[child_pos];
  int32_t split = InsertRec(child_id, entry);
  Node& node2 = nodes_[node_id];  // re-fetch: arena may have reallocated
  node2.rect.Expand(entry.rect);
  if (split >= 0) {
    node2.children.push_back(split);
    node2.rect.Expand(nodes_[split].rect);
    if (node2.children.size() > max_entries_) return SplitNode(node_id);
  }
  return -1;
}

void RTree::Insert(const Rect& rect, uint64_t id) {
  Entry entry{rect, id};
  if (root_ < 0) root_ = NewNode(/*leaf=*/true);
  int32_t split = InsertRec(root_, entry);
  if (split >= 0) {
    int32_t new_root = NewNode(/*leaf=*/false);
    nodes_[new_root].children = {root_, split};
    RecomputeRect(new_root);
    root_ = new_root;
  }
  ++size_;
}

void RTree::BulkLoad(std::vector<Entry> entries) {
  nodes_.clear();
  root_ = -1;
  size_ = entries.size();
  if (entries.empty()) return;

  // STR: sort by center x, slice into vertical strips, sort each strip by
  // center y, pack runs of max_entries_ into leaves; repeat upward.
  size_t leaf_cap = max_entries_;
  size_t num_leaves = (entries.size() + leaf_cap - 1) / leaf_cap;
  size_t strips = static_cast<size_t>(std::ceil(std::sqrt(
      static_cast<double>(num_leaves))));
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.rect.Center().x < b.rect.Center().x;
  });

  std::vector<int32_t> level;
  size_t per_strip = (entries.size() + strips - 1) / strips;
  for (size_t s = 0; s * per_strip < entries.size(); ++s) {
    size_t b = s * per_strip;
    size_t e = std::min(entries.size(), b + per_strip);
    std::sort(entries.begin() + b, entries.begin() + e,
              [](const Entry& a, const Entry& x) {
                return a.rect.Center().y < x.rect.Center().y;
              });
    for (size_t i = b; i < e; i += leaf_cap) {
      int32_t leaf = NewNode(/*leaf=*/true);
      size_t hi = std::min(e, i + leaf_cap);
      nodes_[leaf].entries.assign(entries.begin() + i, entries.begin() + hi);
      RecomputeRect(leaf);
      level.push_back(leaf);
    }
  }

  // Pack internal levels the same way until one root remains.
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(), [&](int32_t a, int32_t b) {
      return nodes_[a].rect.Center().x < nodes_[b].rect.Center().x;
    });
    size_t num_parents = (level.size() + max_entries_ - 1) / max_entries_;
    size_t pstrips = static_cast<size_t>(std::ceil(std::sqrt(
        static_cast<double>(num_parents))));
    size_t pper = (level.size() + pstrips - 1) / pstrips;
    std::vector<int32_t> next;
    for (size_t s = 0; s * pper < level.size(); ++s) {
      size_t b = s * pper;
      size_t e = std::min(level.size(), b + pper);
      std::sort(level.begin() + b, level.begin() + e, [&](int32_t x, int32_t y) {
        return nodes_[x].rect.Center().y < nodes_[y].rect.Center().y;
      });
      for (size_t i = b; i < e; i += max_entries_) {
        int32_t parent = NewNode(/*leaf=*/false);
        size_t hi = std::min(e, i + max_entries_);
        nodes_[parent].children.assign(level.begin() + i, level.begin() + hi);
        RecomputeRect(parent);
        next.push_back(parent);
      }
    }
    level = std::move(next);
  }
  root_ = level.front();
}

void RTree::SearchRec(int32_t node_id, const Rect& window,
                      const std::function<bool(const Entry&)>& fn,
                      bool* keep_going) const {
  if (!*keep_going) return;
  ++nodes_visited;
  const Node& node = nodes_[node_id];
  if (!node.rect.Intersects(window)) return;
  if (node.leaf) {
    for (const Entry& e : node.entries) {
      if (e.rect.Intersects(window)) {
        if (!fn(e)) {
          *keep_going = false;
          return;
        }
      }
    }
    return;
  }
  for (int32_t c : node.children) {
    SearchRec(c, window, fn, keep_going);
    if (!*keep_going) return;
  }
}

void RTree::Search(const Rect& window,
                   const std::function<bool(const Entry&)>& fn) const {
  nodes_visited = 0;
  if (root_ < 0) return;
  bool keep_going = true;
  SearchRec(root_, window, fn, &keep_going);
}

std::vector<RTree::Entry> RTree::SearchAll(const Rect& window) const {
  std::vector<Entry> out;
  Search(window, [&](const Entry& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

}  // namespace lodviz::geo
