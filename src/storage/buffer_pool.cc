#include "storage/buffer_pool.h"

#include "common/logging.h"

namespace lodviz::storage {

PageRef::PageRef(BufferPool* pool, int32_t frame) : pool_(pool), frame_(frame) {}

PageRef::~PageRef() { Release(); }

PageRef::PageRef(PageRef&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.frame_ = -1;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = -1;
  }
  return *this;
}

// While a PageRef is alive the frame is pinned, so its data is stable and
// safe to read without the shard mutex.
const uint8_t* PageRef::data() const {
  return pool_->frames_[frame_].data.get();
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = -1;
  }
}

size_t BufferPool::PickShards(size_t capacity) {
  size_t shards = 1;
  while (shards < 8 && capacity / (shards * 2) >= 8) shards *= 2;
  return shards;
}

size_t BufferPool::ValidatedCapacity(size_t capacity_pages) {
  LODVIZ_CHECK(capacity_pages >= 4) << "buffer pool too small";
  return capacity_pages;
}

BufferPool::BufferPool(PageFile* file, size_t capacity_pages)
    : file_(file),
      capacity_(ValidatedCapacity(capacity_pages)),
      num_shards_(PickShards(capacity_pages)),
      frames_(std::make_unique<Frame[]>(capacity_)),
      shards_(std::make_unique<Shard[]>(num_shards_)),
      agg_hits_(&obs::MetricRegistry::Global().GetCounter(
          "storage.buffer_pool.hits")),
      agg_misses_(&obs::MetricRegistry::Global().GetCounter(
          "storage.buffer_pool.misses")),
      agg_evictions_(&obs::MetricRegistry::Global().GetCounter(
          "storage.buffer_pool.evictions")) {
  for (size_t i = 0; i < capacity_; ++i) {
    frames_[i].data = std::make_unique<uint8_t[]>(kPageSize);
  }
  // Split the frame array into contiguous per-shard ranges; the last
  // shard absorbs the remainder.
  const size_t per_shard = capacity_ / num_shards_;
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s].begin = static_cast<int32_t>(s * per_shard);
    shards_[s].end = static_cast<int32_t>(
        s + 1 == num_shards_ ? capacity_ : (s + 1) * per_shard);
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  registry.GetCounter("storage.buffer_pool.pools_created").Increment();
  registry.GetGauge("storage.buffer_pool.capacity_pages")
      .Set(static_cast<int64_t>(capacity_pages));
}

BufferPool::~BufferPool() { FlushAggregates(); }

void BufferPool::FlushAggregates() {
  agg_hits_->Increment(hits_.value() & (kAggBatch - 1));
}

Result<int32_t> BufferPool::GetVictimFrame(Shard& shard) {
  int32_t victim = -1;
  uint64_t best_tick = ~0ULL;
  for (int32_t i = shard.begin; i < shard.end; ++i) {
    const Frame& f = frames_[i];
    if (f.page_id == kInvalidPageId) return i;
    // Acquire pairs with the release decrement in Unpin: observing zero
    // means the last pinner is done with the frame.
    if (f.pin_count.load(std::memory_order_acquire) == 0 &&
        f.lru_tick < best_tick) {
      best_tick = f.lru_tick;
      victim = i;
    }
  }
  if (victim < 0) {
    return Status::ResourceExhausted("all frames of the page's shard are pinned");
  }
  Frame& f = frames_[victim];
  shard.page_table.erase(f.page_id);
  f.page_id = kInvalidPageId;
  evictions_.Increment();
  agg_evictions_->Increment();
  return victim;
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  Shard& shard = ShardOf(id);
  MutexLock lock(&shard.mu);
  auto it = shard.page_table.find(id);
  if (it != shard.page_table.end()) {
    if ((hits_.IncrementAndGet() & (kAggBatch - 1)) == 0) {
      agg_hits_->Increment(kAggBatch);
    }
    Frame& f = frames_[it->second];
    f.pin_count.fetch_add(1, std::memory_order_relaxed);
    f.lru_tick = ++shard.tick;
    return PageRef(this, it->second);
  }
  misses_.Increment();
  agg_misses_->Increment();
  LODVIZ_ASSIGN_OR_RETURN(int32_t frame, GetVictimFrame(shard));
  Frame& f = frames_[frame];
  LODVIZ_RETURN_NOT_OK(file_->ReadPage(id, f.data.get()));
  f.page_id = id;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.lru_tick = ++shard.tick;
  shard.page_table[id] = frame;
  return PageRef(this, frame);
}

void BufferPool::Unpin(int32_t frame) {
  Frame& f = frames_[frame];
  uint32_t prev = f.pin_count.fetch_sub(1, std::memory_order_release);
  LODVIZ_CHECK(prev > 0) << "unpin of unpinned frame";
}

}  // namespace lodviz::storage
