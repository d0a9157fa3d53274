#ifndef LODVIZ_STORAGE_BUFFER_POOL_H_
#define LODVIZ_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/page_file.h"

namespace lodviz::storage {

class BufferPool;

/// RAII pin on a buffered page. While alive, the frame cannot be evicted.
/// Move-only; unpins on destruction.
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, int32_t frame);
  ~PageRef();

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  const uint8_t* data() const;

  /// Releases the pin early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  int32_t frame_ = -1;
};

/// Fixed-capacity read cache over a PageFile with LRU eviction of unpinned
/// frames. This is what lets lodviz explore datasets larger than memory —
/// the survey's "systems should be integrated with disk structures,
/// retrieving data dynamically during runtime" (Section 4). The pool never
/// writes: a frame is only ever filled by reading its page, and pages are
/// written once, by BTree::BulkLoad, before anything fetches them.
///
/// The frame table is split into lock-striped shards (a power of two,
/// sized so every shard keeps at least 8 frames): each page hashes to a
/// home shard whose mutex covers that shard's page table, LRU clock and
/// frame metadata. Fetches of pages in different shards proceed fully in
/// parallel; pin counts are atomic so Unpin (the PageRef destructor) never
/// takes a lock at all. Eviction is shard-local — a pathological workload
/// pinning every frame of one shard can exhaust it while other shards
/// have free frames, which is the usual striping trade-off.
class BufferPool {
 public:
  BufferPool(PageFile* file, size_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from disk on a miss. Safe to call
  /// concurrently; fetches that land in different shards do not contend.
  Result<PageRef> Fetch(PageId id);

  /// The file this pool reads; BTree::BulkLoad writes its pages there.
  PageFile* file() const { return file_; }

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return num_shards_; }
  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  double HitRate() const {
    uint64_t total = hits() + misses();
    return total ? static_cast<double>(hits()) / static_cast<double>(total)
                 : 0.0;
  }
  /// Resets this pool's counters; the process-wide aggregates in the obs
  /// registry (storage.buffer_pool.*) are monotonic and unaffected (any
  /// not-yet-flushed hit batch is folded in first).
  void ResetCounters() {
    FlushAggregates();
    hits_.Reset();
    misses_.Reset();
    evictions_.Reset();
  }

  /// Bytes held by page frames.
  size_t MemoryUsage() const { return capacity_ * kPageSize; }

 private:
  friend class PageRef;

  struct Frame {
    /// Identity and recency are only touched under the home shard's mutex.
    PageId page_id = kInvalidPageId;
    uint64_t lru_tick = 0;
    /// Pins drop without a lock (PageRef destruction, release order); the
    /// evictor reads with acquire under the shard mutex, so a zero implies
    /// the last pinner's reads of the frame finished before it is refilled.
    std::atomic<uint32_t> pin_count{0};
    std::unique_ptr<uint8_t[]> data;
  };

  struct Shard {
    mutable Mutex mu;
    std::unordered_map<PageId, int32_t> page_table LODVIZ_GUARDED_BY(mu);
    uint64_t tick LODVIZ_GUARDED_BY(mu) = 0;
    /// Frame range [begin, end) owned by this shard. Written once by the
    /// pool constructor before any concurrent access; immutable afterwards
    /// (can't be const: shards live in a default-constructed array).
    // LINT-ALLOW(concurrency.guarded_by): set once in BufferPool ctor
    int32_t begin = 0;
    // LINT-ALLOW(concurrency.guarded_by): set once in BufferPool ctor
    int32_t end = 0;
  };

  /// Number of shards for `capacity` frames: the largest power of two
  /// <= 8 that still leaves every shard at least 8 frames (tiny pools —
  /// the 8-page test fixtures — degrade to a single shard).
  static size_t PickShards(size_t capacity);

  Shard& ShardOf(PageId id) {
    return shards_[(static_cast<uint64_t>(id) * 2654435761ULL >> 16) &
                   (num_shards_ - 1)];
  }

  /// Finds a free or evictable frame in `shard`; error if all of the
  /// shard's frames are pinned.
  Result<int32_t> GetVictimFrame(Shard& shard) LODVIZ_REQUIRES(shard.mu);

  void Unpin(int32_t frame);

  /// Folds the unflushed tail of the hit batch into the registry aggregate
  /// (hits flush in batches of kAggBatch to keep the hit path at a single
  /// atomic op; misses and evictions are rare and flush per event).
  void FlushAggregates();

  /// Hit-count batch size for registry aggregation; the process-wide
  /// `storage.buffer_pool.hits` counter lags a live pool by < kAggBatch.
  static constexpr uint64_t kAggBatch = 64;

  /// Validates the pool size so the const members below can be built in
  /// the initializer list.
  static size_t ValidatedCapacity(size_t capacity_pages);

  // Everything below the shard array is immutable after construction (the
  // pointers are const; the pointees carry their own synchronization), so
  // the shard mutexes guard exactly the mutable state annotated above.
  PageFile* const file_;
  const size_t capacity_;
  const size_t num_shards_;
  const std::unique_ptr<Frame[]> frames_;
  const std::unique_ptr<Shard[]> shards_;
  // Per-instance atomic counters (lock-free, so the pin path stays clean
  // under TSan) feeding the per-pool accessors above; the aggregates
  // below fold every pool into the process-wide metric registry.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter* const agg_hits_;
  obs::Counter* const agg_misses_;
  obs::Counter* const agg_evictions_;
};

}  // namespace lodviz::storage

#endif  // LODVIZ_STORAGE_BUFFER_POOL_H_
