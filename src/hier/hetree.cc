#include "hier/hetree.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lodviz::hier {

HETree::HETree(std::shared_ptr<const SortedData> data, const Options& options)
    : data_(std::move(data)), options_(options) {
  // Root covers everything.
  Node root;
  root.first = 0;
  root.last = data_->items.size();
  root.lo = data_->items.front().value;
  root.hi = data_->items.back().value;
  root.stats = StatsForItemRange(root.first, root.last);
  root.is_leaf = root.last - root.first <= options_.leaf_capacity;
  root.depth = 0;
  nodes_.push_back(std::move(root));
}

namespace {

/// (value, object): a total order once non-finite values are gone, so a
/// sort leaves equal values in one order whatever the thread count.
bool ItemLess(const Item& a, const Item& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.object < b.object;
}

}  // namespace

Result<HETree> HETree::Build(std::vector<Item> items, const Options& options) {
  LODVIZ_TRACE_SPAN("hier.hetree.build");
  std::erase_if(items,
                [](const Item& item) { return !std::isfinite(item.value); });
  exec::ParallelSort(items.begin(), items.end(), ItemLess);
  return BuildSorted(std::move(items), options);
}

Result<HETree> HETree::BuildSorted(std::vector<Item> items,
                                   const Options& options) {
  static obs::Counter* builds =
      &obs::MetricRegistry::Global().GetCounter("hier.hetree.builds");
  static obs::Counter* items_indexed =
      &obs::MetricRegistry::Global().GetCounter("hier.hetree.items_indexed");
  static obs::Histogram* build_us =
      &obs::MetricRegistry::Global().GetHistogram("hier.hetree.build_us");
  builds->Increment();
  items_indexed->Increment(items.size());
  Stopwatch sw;
  struct BuildFold {
    obs::Histogram* build_us;
    const Stopwatch& sw;
    ~BuildFold() { build_us->RecordDouble(sw.ElapsedMicros()); }
  } fold{build_us, sw};
  if (items.empty()) return Status::InvalidArgument("HETree needs items");
  if (options.fanout < 2) return Status::InvalidArgument("fanout must be >= 2");
  if (options.leaf_capacity < 1) {
    return Status::InvalidArgument("leaf_capacity must be >= 1");
  }
  LODVIZ_DCHECK(std::is_sorted(items.begin(), items.end(), ItemLess));
  auto data = std::make_shared<SortedData>();
  size_t n = items.size();
  data->items = std::move(items);
  data->prefix_sum.resize(n + 1, 0.0);
  data->prefix_sumsq.resize(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double v = data->items[i].value;
    data->prefix_sum[i + 1] = data->prefix_sum[i] + v;
    data->prefix_sumsq[i + 1] = data->prefix_sumsq[i] + v * v;
  }
  HETree tree(std::move(data), options);
  if (!options.lazy) tree.MaterializeAll();
  return tree;
}

Result<HETree> HETree::BuildFromProperty(const rdf::TripleSource& source,
                                         rdf::TermId predicate,
                                         const Options& options) {
  LODVIZ_TRACE_SPAN("hier.hetree.build_from_property");
  // One group per distinct object, holding its subjects' range in
  // `subjects`. A group may span runs; a dropped object adds no subjects,
  // so each group ends where the next one starts.
  struct Group {
    double value = 0.0;
    size_t first = 0;
    size_t last = 0;
  };
  const rdf::Dictionary& dict = source.dict();
  std::vector<rdf::TermId> subjects;
  std::vector<Group> groups;
  rdf::TermId object = rdf::kInvalidTermId;
  bool keep = false;
  source.ScanRuns({rdf::kInvalidTermId, predicate, rdf::kInvalidTermId},
                  [&](const rdf::Triple* run, size_t n) {
                    for (size_t i = 0; i < n; ++i) {
                      if (run[i].o != object) {
                        object = run[i].o;
                        Result<double> v = dict.ScalarValue(object);
                        keep = v.ok() && std::isfinite(*v);
                        if (keep) groups.push_back({*v, subjects.size(), 0});
                      }
                      if (keep) subjects.push_back(run[i].s);
                    }
                    return true;
                  });
  if (groups.empty()) {
    return Status::NotFound("predicate has no numeric/temporal objects");
  }
  for (size_t g = 0; g + 1 < groups.size(); ++g) {
    groups[g].last = groups[g + 1].first;
  }
  groups.back().last = subjects.size();
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return a.value < b.value;
  });
  // Each group's subjects ascend, so only a value shared by several
  // objects (say "30" and "30.0") needs its range sorted by subject.
  std::vector<Item> items;
  items.reserve(subjects.size());
  for (size_t g = 0; g < groups.size();) {
    const size_t begin = items.size();
    size_t h = g;
    for (; h < groups.size() && groups[h].value == groups[g].value; ++h) {
      for (size_t i = groups[h].first; i < groups[h].last; ++i) {
        items.push_back({groups[h].value, subjects[i]});
      }
    }
    if (h - g > 1) std::sort(items.begin() + begin, items.end(), ItemLess);
    g = h;
  }
  return BuildSorted(std::move(items), options);
}

NodeStats HETree::StatsForItemRange(size_t first, size_t last) const {
  NodeStats s;
  if (last <= first) return s;
  s.count = last - first;
  s.min = data_->items[first].value;
  s.max = data_->items[last - 1].value;
  s.sum = data_->prefix_sum[last] - data_->prefix_sum[first];
  double sumsq = data_->prefix_sumsq[last] - data_->prefix_sumsq[first];
  double n = static_cast<double>(s.count);
  s.mean = s.sum / n;
  s.variance = std::max(0.0, sumsq / n - s.mean * s.mean);
  return s;
}

size_t HETree::LowerBound(double value) const {
  auto it = std::lower_bound(
      data_->items.begin(), data_->items.end(), value,
      [](const Item& item, double v) { return item.value < v; });
  return static_cast<size_t>(it - data_->items.begin());
}

size_t HETree::UpperBound(double value) const {
  auto it = std::upper_bound(
      data_->items.begin(), data_->items.end(), value,
      [](double v, const Item& item) { return v < item.value; });
  return static_cast<size_t>(it - data_->items.begin());
}

std::vector<HETree::Node> HETree::ComputeChildren(const Node& parent) const {
  size_t first = parent.first, last = parent.last;
  size_t count = last - first;
  std::vector<std::pair<size_t, size_t>> ranges;  // item ranges
  std::vector<std::pair<double, double>> bounds;  // value ranges

  if (options_.kind == Kind::kContent) {
    // Equal item counts per child.
    size_t k = std::min(options_.fanout, count);
    for (size_t c = 0; c < k; ++c) {
      size_t b = first + c * count / k;
      size_t e = first + (c + 1) * count / k;
      if (e <= b) continue;
      ranges.emplace_back(b, e);
      bounds.emplace_back(data_->items[b].value, data_->items[e - 1].value);
    }
  } else {
    // Equal value sub-ranges; empty sub-ranges are skipped.
    double lo = parent.lo, hi = parent.hi;
    if (hi <= lo) {
      // Degenerate single-value range: fall back to content split so the
      // tree still terminates.
      size_t k = std::min(options_.fanout, count);
      for (size_t c = 0; c < k; ++c) {
        size_t b = first + c * count / k;
        size_t e = first + (c + 1) * count / k;
        if (e > b) {
          ranges.emplace_back(b, e);
          bounds.emplace_back(data_->items[b].value, data_->items[e - 1].value);
        }
      }
    } else {
      double width = (hi - lo) / static_cast<double>(options_.fanout);
      size_t prev = first;
      for (size_t c = 0; c < options_.fanout; ++c) {
        double chi = (c + 1 == options_.fanout) ? hi : lo + width * (c + 1);
        size_t e = (c + 1 == options_.fanout) ? last : UpperBound(chi);
        e = std::min(e, last);
        if (e > prev) {
          ranges.emplace_back(prev, e);
          bounds.emplace_back(lo + width * c, chi);
        }
        prev = std::max(prev, e);
      }
    }
  }

  std::vector<Node> children;
  children.reserve(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    Node child;
    child.first = ranges[i].first;
    child.last = ranges[i].second;
    child.lo = bounds[i].first;
    child.hi = bounds[i].second;
    child.stats = StatsForItemRange(child.first, child.last);
    child.is_leaf = (child.last - child.first) <= options_.leaf_capacity ||
                    ranges.size() <= 1;
    child.depth = parent.depth + 1;
    children.push_back(std::move(child));
  }
  return children;
}

void HETree::AttachChildren(NodeId id, std::vector<Node> children) {
  std::vector<NodeId> child_ids;
  child_ids.reserve(children.size());
  for (Node& child : children) {
    child.parent = id;
    child_ids.push_back(static_cast<NodeId>(nodes_.size()));
    nodes_.push_back(std::move(child));
  }
  Node& parent = nodes_[id];  // re-fetch (vector may have grown)
  parent.children = std::move(child_ids);
  parent.children_materialized = true;
}

void HETree::MaterializeChildren(NodeId id) {
  const Node& parent = nodes_[id];
  if (parent.children_materialized || parent.is_leaf) return;
  AttachChildren(id, ComputeChildren(parent));
}

const std::vector<HETree::NodeId>& HETree::Children(NodeId id) {
  LODVIZ_DCHECK(id < nodes_.size()) << "node id" << id << "out of range";
  MaterializeChildren(id);
  return nodes_[id].children;
}

void HETree::MaterializeAll() {
  // BFS materialization of the entire tree.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    MaterializeChildren(static_cast<NodeId>(i));
  }
}

NodeStats HETree::RangeStats(double lo, double hi) const {
  if (hi < lo) return {};
  size_t first = LowerBound(lo);
  size_t last = UpperBound(hi);
  return StatsForItemRange(first, last);
}

std::vector<Item> HETree::LeafItems(NodeId id) const {
  const Node& n = nodes_[id];
  return std::vector<Item>(data_->items.begin() + n.first,
                           data_->items.begin() + n.last);
}

HETree HETree::Adapt(const Options& new_options) const {
  LODVIZ_CHECK(new_options.fanout >= 2);
  LODVIZ_CHECK(new_options.leaf_capacity >= 1);
  return HETree(data_, new_options);
}

}  // namespace lodviz::hier
