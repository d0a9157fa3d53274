#ifndef LODVIZ_STORAGE_BTREE_H_
#define LODVIZ_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/leaf_codec.h"

namespace lodviz::storage {

/// Disk-resident B+-tree with Key128 keys and uint64 values, living
/// entirely in buffer-pool pages. Supports point insert, point lookup,
/// ordered range scans, and sorted bulk load. Set semantics: inserting an
/// existing key overwrites its value.
///
/// Leaves hold delta-compressed varint-gap runs with an in-page restart
/// directory (leaf_codec.h); inserting into a full leaf decodes,
/// re-encodes, and splits it.
class BTree {
 public:
  struct Item {
    Key128 key;
    uint64_t value = 0;
  };

  /// Creates an empty tree, allocating its root in `pool`.
  static Result<BTree> Create(BufferPool* pool);

  /// Reattaches to an existing tree rooted at `root`.
  static BTree Attach(BufferPool* pool, PageId root, uint64_t size);

  /// Builds a packed tree from strictly-ascending items (each leaf holds
  /// as many items as encode into its page). Non-strictly-ascending input
  /// is InvalidArgument.
  static Result<BTree> BulkLoad(BufferPool* pool,
                                const std::vector<Item>& sorted_items);

  /// Upserts. When `inserted` is non-null it reports whether the key was
  /// new (false: an existing key's value was overwritten) — what lets the
  /// triple store maintain its aggregated counts exactly under mutation.
  Status Insert(const Key128& key, uint64_t value, bool* inserted = nullptr);

  /// Value for `key`; NotFound if absent.
  [[nodiscard]] Result<uint64_t> Lookup(const Key128& key) const;

  /// Streams items with lo <= key <= hi in key order, each leaf's
  /// in-range items as one decoded run (one decode of the page); return
  /// false to stop. Run pointers are only valid during the callback.
  Status RangeScanRuns(
      const Key128& lo, const Key128& hi,
      const std::function<bool(const Item* run, size_t n)>& fn) const;

  PageId root() const { return root_; }
  uint64_t size() const { return size_; }
  int height() const { return height_; }

 private:
  BTree(BufferPool* pool, PageId root, uint64_t size, int height)
      : pool_(pool), root_(root), size_(size), height_(height) {}

  struct SplitResult {
    bool split = false;
    Key128 separator;   // first key of the new right sibling's subtree
    PageId right = kInvalidPageId;
    bool inserted = false;  // false when an existing key was overwritten
  };

  Result<SplitResult> InsertRec(PageId page, const Key128& key,
                                uint64_t value);
  Result<SplitResult> InsertLeaf(PageRef& page, const Key128& key,
                                 uint64_t value);

  BufferPool* pool_;
  PageId root_;
  uint64_t size_ = 0;
  int height_ = 1;
};

}  // namespace lodviz::storage

#endif  // LODVIZ_STORAGE_BTREE_H_
