#include "storage/btree.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace lodviz::storage {

namespace {

// On-page layouts. Pages begin with a shared 16-byte header. `is_leaf` is
// non-zero for leaves, whose body is a compressed leaf (leaf_codec.h), and
// 0 for internal nodes.
struct PageHeader {
  uint8_t is_leaf;
  uint8_t pad0;
  uint16_t count;
  PageId next_leaf;  // leaves only; kInvalidPageId otherwise
  uint64_t pad1;
};
static_assert(sizeof(PageHeader) == 16);

// Internal layout: header, keys[kInternalCapacity], children[kInternalCapacity+1].
constexpr size_t kInternalCapacity =
    (kPageSize - sizeof(PageHeader) - sizeof(PageId)) /
    (sizeof(Key128) + sizeof(PageId));

PageHeader* Header(uint8_t* page) { return reinterpret_cast<PageHeader*>(page); }

const PageHeader* Header(const uint8_t* page) {
  return reinterpret_cast<const PageHeader*>(page);
}

Key128* InternalKeys(uint8_t* page) {
  return reinterpret_cast<Key128*>(page + sizeof(PageHeader));
}

PageId* InternalChildren(uint8_t* page) {
  return reinterpret_cast<PageId*>(page + sizeof(PageHeader) +
                                   kInternalCapacity * sizeof(Key128));
}

void InitLeaf(uint8_t* page) {
  PageHeader* h = Header(page);
  h->is_leaf = 1;
  h->count = 0;
  h->next_leaf = kInvalidPageId;
}

void InitInternal(uint8_t* page) {
  PageHeader* h = Header(page);
  h->is_leaf = 0;
  h->count = 0;
  h->next_leaf = kInvalidPageId;
}

CompressedLeafReader ReaderFor(const uint8_t* page) {
  return CompressedLeafReader(page, sizeof(PageHeader), Header(page)->count);
}

/// Re-encodes `items[begin, end)` into `page` as a compressed leaf,
/// preserving the header's next_leaf link. The range must fit (callers
/// only re-encode ranges no larger than what the page held before).
void ReencodeCompressedLeaf(uint8_t* page, const std::vector<BTree::Item>& items,
                            size_t begin, size_t end) {
  const PageId next = Header(page)->next_leaf;
  InitLeaf(page);
  CompressedLeafBuilder builder(page, sizeof(PageHeader));
  for (size_t i = begin; i < end; ++i) {
    LODVIZ_CHECK(builder.Append(items[i].key, items[i].value))
        << "compressed leaf re-encode overflow: " << (end - begin)
        << " items do not fit a page that previously held them";
  }
  PageHeader* h = Header(page);
  h->count = builder.Finish();
  h->next_leaf = next;
}

}  // namespace

Result<BTree> BTree::Create(BufferPool* pool) {
  LODVIZ_ASSIGN_OR_RETURN(PageRef root, pool->NewPage());
  InitLeaf(root.data());
  root.MarkDirty();
  return BTree(pool, root.page_id(), 0, 1);
}

BTree BTree::Attach(BufferPool* pool, PageId root, uint64_t size) {
  return BTree(pool, root, size, /*height=*/-1);
}

Result<uint64_t> BTree::Lookup(const Key128& key) const {
  PageId page_id = root_;
  while (true) {
    LODVIZ_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(page_id));
    const PageHeader* h = Header(page.data());
    if (h->is_leaf) {
      uint64_t value = 0;
      if (ReaderFor(page.data()).Find(key, &value)) return value;
      return Status::NotFound("key not in btree");
    }
    const Key128* keys = InternalKeys(page.data());
    const PageId* children = InternalChildren(page.data());
    size_t idx = static_cast<size_t>(
        std::upper_bound(keys, keys + h->count, key) - keys);
    page_id = children[idx];
  }
}

Result<BTree::SplitResult> BTree::InsertLeaf(PageRef& page, const Key128& key,
                                             uint64_t value) {
  // Decode, upsert in the sorted item vector, re-encode. One page decode
  // per insert keeps the code one straight path; point inserts after a
  // bulk load are the rare case (the store bulk-loads).
  std::vector<Item> items;
  ReaderFor(page.data()).DecodeFrom(Key128::Min(), &items);
  auto it = std::lower_bound(
      items.begin(), items.end(), key,
      [](const Item& e, const Key128& k) { return e.key < k; });
  SplitResult r;
  if (it != items.end() && it->key == key) {
    it->value = value;
    r.inserted = false;
  } else {
    items.insert(it, Item{key, value});
    r.inserted = true;
  }

  // Re-encode in place when everything still fits.
  {
    CompressedLeafBuilder builder(page.data(), sizeof(PageHeader));
    bool fits = true;
    for (const Item& item : items) {
      if (!builder.Append(item.key, item.value)) {
        fits = false;
        break;
      }
    }
    if (fits) {
      const PageId next = Header(page.data())->next_leaf;
      InitLeaf(page.data());
      PageHeader* h = Header(page.data());
      h->count = builder.Finish();
      h->next_leaf = next;
      page.MarkDirty();
      return r;
    }
  }

  // Split: lower half re-encoded in place, upper half into a new right
  // sibling. Each half is at most as large as the pre-insert page
  // contents, so both re-encodes fit (checked in ReencodeCompressedLeaf).
  const size_t keep = items.size() / 2;
  LODVIZ_ASSIGN_OR_RETURN(PageRef right, pool_->NewPage());
  InitLeaf(right.data());
  Header(right.data())->next_leaf = Header(page.data())->next_leaf;
  ReencodeCompressedLeaf(right.data(), items, keep, items.size());
  ReencodeCompressedLeaf(page.data(), items, 0, keep);
  Header(page.data())->next_leaf = right.page_id();
  right.MarkDirty();
  page.MarkDirty();
  r.split = true;
  r.separator = items[keep].key;
  r.right = right.page_id();
  return r;
}

Result<BTree::SplitResult> BTree::InsertRec(PageId page_id, const Key128& key,
                                            uint64_t value) {
  LODVIZ_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(page_id));
  PageHeader* h = Header(page.data());

  if (h->is_leaf) return InsertLeaf(page, key, value);

  // Internal node: descend.
  Key128* keys = InternalKeys(page.data());
  PageId* children = InternalChildren(page.data());
  size_t idx = static_cast<size_t>(
      std::upper_bound(keys, keys + h->count, key) - keys);
  PageId child = children[idx];
  page.Release();  // avoid holding pins across the recursion

  LODVIZ_ASSIGN_OR_RETURN(SplitResult child_split, InsertRec(child, key, value));
  if (!child_split.split) return child_split;

  LODVIZ_ASSIGN_OR_RETURN(PageRef page2, pool_->Fetch(page_id));
  h = Header(page2.data());
  keys = InternalKeys(page2.data());
  children = InternalChildren(page2.data());
  // Re-locate the insertion point (structure may have shifted only via our
  // own child split, but recompute for safety).
  idx = static_cast<size_t>(
      std::upper_bound(keys, keys + h->count, child_split.separator) - keys);
  std::memmove(keys + idx + 1, keys + idx,
               (h->count - idx) * sizeof(Key128));
  std::memmove(children + idx + 2, children + idx + 1,
               (h->count - idx) * sizeof(PageId));
  keys[idx] = child_split.separator;
  children[idx + 1] = child_split.right;
  ++h->count;
  page2.MarkDirty();

  SplitResult r;
  r.inserted = child_split.inserted;
  if (h->count < kInternalCapacity) return r;

  // Split internal node: promote the middle key.
  LODVIZ_ASSIGN_OR_RETURN(PageRef right, pool_->NewPage());
  InitInternal(right.data());
  PageHeader* rh = Header(right.data());
  Key128* rkeys = InternalKeys(right.data());
  PageId* rchildren = InternalChildren(right.data());

  uint16_t mid = h->count / 2;
  Key128 promote = keys[mid];
  uint16_t moved = h->count - mid - 1;
  std::memcpy(rkeys, keys + mid + 1, moved * sizeof(Key128));
  std::memcpy(rchildren, children + mid + 1,
              (moved + 1) * sizeof(PageId));
  rh->count = moved;
  h->count = mid;
  right.MarkDirty();
  page2.MarkDirty();

  r.split = true;
  r.separator = promote;
  r.right = right.page_id();
  return r;
}

Status BTree::Insert(const Key128& key, uint64_t value, bool* inserted) {
  LODVIZ_ASSIGN_OR_RETURN(SplitResult r, InsertRec(root_, key, value));
  if (r.inserted) ++size_;
  if (inserted != nullptr) *inserted = r.inserted;
  if (r.split) {
    LODVIZ_ASSIGN_OR_RETURN(PageRef new_root, pool_->NewPage());
    InitInternal(new_root.data());
    PageHeader* h = Header(new_root.data());
    InternalKeys(new_root.data())[0] = r.separator;
    InternalChildren(new_root.data())[0] = root_;
    InternalChildren(new_root.data())[1] = r.right;
    h->count = 1;
    new_root.MarkDirty();
    root_ = new_root.page_id();
    if (height_ > 0) ++height_;
  }
  return Status::OK();
}

Status BTree::RangeScanRuns(
    const Key128& lo, const Key128& hi,
    const std::function<bool(const Item* run, size_t n)>& fn) const {
  // Descend to the leaf that may contain `lo`.
  PageId page_id = root_;
  while (true) {
    LODVIZ_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(page_id));
    const PageHeader* h = Header(page.data());
    if (h->is_leaf) break;
    const Key128* keys = InternalKeys(page.data());
    const PageId* children = InternalChildren(page.data());
    size_t idx = static_cast<size_t>(
        std::upper_bound(keys, keys + h->count, lo) - keys);
    page_id = children[idx];
  }

  // Walk leaves via next pointers, delivering one run per leaf. The
  // decode scratch is reused across leaves; only the first leaf needs the
  // lower-bound seek (every later leaf starts above `lo`).
  std::vector<Item> scratch;
  Key128 seek = lo;
  while (page_id != kInvalidPageId) {
    LODVIZ_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(page_id));
    scratch.clear();
    ReaderFor(page.data()).DecodeFrom(seek, &scratch);
    const Item* run = scratch.data();
    const size_t n = scratch.size();
    // Trim the run at `hi`; anything past it ends the scan.
    const Item* cut = std::upper_bound(
        run, run + n, hi,
        [](const Key128& k, const Item& e) { return k < e.key; });
    const size_t m = static_cast<size_t>(cut - run);
    if (m > 0 && !fn(run, m)) return Status::OK();
    if (m < n) return Status::OK();
    seek = Key128::Min();
    page_id = Header(page.data())->next_leaf;
  }
  return Status::OK();
}

Result<BTree> BTree::BulkLoad(BufferPool* pool,
                              const std::vector<Item>& sorted_items) {
  for (size_t i = 1; i < sorted_items.size(); ++i) {
    if (!(sorted_items[i - 1].key < sorted_items[i].key)) {
      return Status::InvalidArgument(
          "BTree::BulkLoad requires strictly ascending keys (duplicate or "
          "out-of-order item at index " + std::to_string(i) + ")");
    }
  }
  if (sorted_items.empty()) return Create(pool);

  // Build leaves left to right.
  struct LevelEntry {
    Key128 first_key;
    PageId page;
  };
  std::vector<LevelEntry> level;
  size_t i = 0;
  PageId prev_leaf = kInvalidPageId;
  while (i < sorted_items.size()) {
    LODVIZ_ASSIGN_OR_RETURN(PageRef leaf, pool->NewPage());
    InitLeaf(leaf.data());
    CompressedLeafBuilder builder(leaf.data(), sizeof(PageHeader));
    size_t n = 0;
    while (i + n < sorted_items.size() &&
           builder.Append(sorted_items[i + n].key, sorted_items[i + n].value)) {
      ++n;
    }
    Header(leaf.data())->count = builder.Finish();
    leaf.MarkDirty();
    level.push_back({sorted_items[i].key, leaf.page_id()});
    if (prev_leaf != kInvalidPageId) {
      LODVIZ_ASSIGN_OR_RETURN(PageRef prev, pool->Fetch(prev_leaf));
      Header(prev.data())->next_leaf = leaf.page_id();
      prev.MarkDirty();
    }
    prev_leaf = leaf.page_id();
    i += n;
  }

  // Build internal levels.
  int height = 1;
  const size_t per_node = kInternalCapacity - 1;
  while (level.size() > 1) {
    std::vector<LevelEntry> next;
    size_t j = 0;
    while (j < level.size()) {
      LODVIZ_ASSIGN_OR_RETURN(PageRef node, pool->NewPage());
      InitInternal(node.data());
      PageHeader* h = Header(node.data());
      Key128* keys = InternalKeys(node.data());
      PageId* children = InternalChildren(node.data());
      size_t n = std::min(per_node + 1, level.size() - j);  // children count
      children[0] = level[j].page;
      for (size_t k = 1; k < n; ++k) {
        keys[k - 1] = level[j + k].first_key;
        children[k] = level[j + k].page;
      }
      h->count = static_cast<uint16_t>(n - 1);
      node.MarkDirty();
      next.push_back({level[j].first_key, node.page_id()});
      j += n;
    }
    level = std::move(next);
    ++height;
  }

  return BTree(pool, level.front().page, sorted_items.size(), height);
}

}  // namespace lodviz::storage
