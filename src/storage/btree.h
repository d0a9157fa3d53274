#ifndef LODVIZ_STORAGE_BTREE_H_
#define LODVIZ_STORAGE_BTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/leaf_codec.h"

namespace lodviz::storage {

/// Disk-resident B+-tree with Key128 keys and uint64 values. The tree is
/// write-once: BulkLoad encodes it from sorted items and writes every page
/// straight to the pool's PageFile, leaves first and then each internal
/// level, each page once at the end of the file. After that it is only
/// read, through the buffer pool: point lookups and ordered range scans.
/// A changed dataset is a new tree built from a scan.
///
/// Leaves hold delta-compressed varint-gap runs with an in-page restart
/// directory (leaf_codec.h). An empty tree has no pages: its root() is
/// kInvalidPageId.
class BTree {
 public:
  struct Item {
    Key128 key;
    uint64_t value = 0;
  };

  /// Reattaches to an existing tree rooted at `root` (kInvalidPageId: the
  /// empty tree).
  static BTree Attach(BufferPool* pool, PageId root, uint64_t size);

  /// Writes a packed tree of strictly-ascending items (each leaf holds as
  /// many items as encode into its page) to `pool`'s file, starting at its
  /// current end. Non-strictly-ascending input is InvalidArgument; a failed
  /// page write is returned as is. Single-threaded: nothing else may write
  /// the file meanwhile.
  static Result<BTree> BulkLoad(BufferPool* pool,
                                const std::vector<Item>& sorted_items);

  /// Value for `key`; NotFound if absent.
  [[nodiscard]] Result<uint64_t> Lookup(const Key128& key) const;

  /// Streams items with lo <= key <= hi in key order, each leaf's
  /// in-range items as one decoded run; return false to stop. A leaf is
  /// decoded only over the blocks that overlap [lo, hi]; the scan stops at
  /// the first leaf holding a key above `hi`, and fetches no second leaf
  /// when `hi` is below the next leaf's first key. Entries
  /// decoded are added to `storage.leaf_entries_decoded` once per scan.
  /// Run pointers are only valid during the callback.
  Status RangeScanRuns(
      const Key128& lo, const Key128& hi,
      const std::function<bool(const Item* run, size_t n)>& fn) const;

  PageId root() const { return root_; }
  uint64_t size() const { return size_; }
  /// Levels from root to leaf: 0 for the empty tree, -1 when attached.
  int height() const { return height_; }

 private:
  BTree(BufferPool* pool, PageId root, uint64_t size, int height)
      : pool_(pool), root_(root), size_(size), height_(height) {}

  BufferPool* pool_;
  PageId root_;
  uint64_t size_ = 0;
  int height_ = 1;
};

}  // namespace lodviz::storage

#endif  // LODVIZ_STORAGE_BTREE_H_
