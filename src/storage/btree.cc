#include "storage/btree.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

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

const Key128* InternalKeys(const uint8_t* page) {
  return InternalKeys(const_cast<uint8_t*>(page));
}

const PageId* InternalChildren(const uint8_t* page) {
  return InternalChildren(const_cast<uint8_t*>(page));
}

CompressedLeafReader ReaderFor(const uint8_t* page) {
  return CompressedLeafReader(page, sizeof(PageHeader), Header(page)->count);
}

}  // namespace

BTree BTree::Attach(BufferPool* pool, PageId root, uint64_t size) {
  return BTree(pool, root, size, /*height=*/-1);
}

Result<uint64_t> BTree::Lookup(const Key128& key) const {
  if (root_ == kInvalidPageId) return Status::NotFound("key not in btree");
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

Status BTree::RangeScanRuns(
    const Key128& lo, const Key128& hi,
    const std::function<bool(const Item* run, size_t n)>& fn) const {
  // Entries decoded are tallied locally and folded in once per scan so the
  // per-row path stays free of shared-cache-line traffic.
  static obs::Counter& decoded_counter =
      obs::MetricRegistry::Global().GetCounter("storage.leaf_entries_decoded");
  uint64_t decoded = 0;
  struct DecodedFold {
    const uint64_t& decoded;
    ~DecodedFold() { decoded_counter.Increment(decoded); }
  } fold{decoded};

  // One pass from the root: internal pages descend towards `lo`, then
  // leaves are walked via next pointers, one run per leaf. The descent
  // keeps the separator above the chosen child; the deepest one is the
  // next leaf's first key, the first leaf's upper fence. Only the first
  // leaf needs the lower-bound seek (every later leaf starts above `lo`).
  // The scan ends at the first leaf holding a key above `hi`, or after the
  // first leaf when `hi` is below its fence. The empty tree's root is
  // kInvalidPageId, so it fetches nothing.
  std::vector<Item> scratch;
  Key128 seek = lo;
  bool fenced = false;
  Key128 fence;
  PageId page_id = root_;
  while (page_id != kInvalidPageId) {
    LODVIZ_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(page_id));
    const PageHeader* h = Header(page.data());
    if (!h->is_leaf) {
      const Key128* keys = InternalKeys(page.data());
      size_t idx = static_cast<size_t>(
          std::upper_bound(keys, keys + h->count, lo) - keys);
      if (idx < h->count) {
        fenced = true;
        fence = keys[idx];
      }
      page_id = InternalChildren(page.data())[idx];
      continue;
    }
    scratch.clear();
    const bool past_hi =
        ReaderFor(page.data()).DecodeRange(seek, hi, &scratch, &decoded);
    if (!scratch.empty() && !fn(scratch.data(), scratch.size())) {
      return Status::OK();
    }
    // The fence stays set past the first leaf: it is at or below every
    // later key, so `hi < fence` cannot hold once a leaf is passed in full.
    if (past_hi || (fenced && hi < fence)) return Status::OK();
    seek = Key128::Min();
    page_id = h->next_leaf;
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
  if (sorted_items.empty()) return BTree(pool, kInvalidPageId, 0, 0);

  // Every page is encoded in `page` and written once at the file's end, so
  // the tree's pages get consecutive ids and the pool never holds a frame
  // of one (a fetch past the end fails and installs nothing).
  PageFile* file = pool->file();
  std::vector<uint8_t> page(kPageSize);
  PageHeader* h = Header(page.data());
  struct LevelEntry {
    Key128 first_key;
    PageId page;
  };

  // Leaves, left to right. The next leaf is always the next page.
  std::vector<LevelEntry> level;
  size_t i = 0;
  while (i < sorted_items.size()) {
    std::fill(page.begin(), page.end(), 0);
    CompressedLeafBuilder builder(page.data(), sizeof(PageHeader));
    size_t n = 0;
    while (i + n < sorted_items.size() &&
           builder.Append(sorted_items[i + n].key, sorted_items[i + n].value)) {
      ++n;
    }
    const PageId id = file->num_pages();
    h->is_leaf = 1;
    h->count = builder.Finish();
    h->next_leaf = i + n < sorted_items.size() ? id + 1 : kInvalidPageId;
    LODVIZ_RETURN_NOT_OK(file->WritePage(id, page.data()));
    level.push_back({sorted_items[i].key, id});
    i += n;
  }

  // Internal levels, bottom up, until one root remains.
  int height = 1;
  while (level.size() > 1) {
    std::vector<LevelEntry> next;
    size_t j = 0;
    while (j < level.size()) {
      std::fill(page.begin(), page.end(), 0);
      Key128* keys = InternalKeys(page.data());
      PageId* children = InternalChildren(page.data());
      size_t n = std::min(kInternalCapacity, level.size() - j);  // children
      children[0] = level[j].page;
      for (size_t k = 1; k < n; ++k) {
        keys[k - 1] = level[j + k].first_key;
        children[k] = level[j + k].page;
      }
      const PageId id = file->num_pages();
      h->count = static_cast<uint16_t>(n - 1);
      h->next_leaf = kInvalidPageId;
      LODVIZ_RETURN_NOT_OK(file->WritePage(id, page.data()));
      next.push_back({level[j].first_key, id});
      j += n;
    }
    level = std::move(next);
    ++height;
  }

  return BTree(pool, level.front().page, sorted_items.size(), height);
}

}  // namespace lodviz::storage
