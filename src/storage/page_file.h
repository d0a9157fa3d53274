#ifndef LODVIZ_STORAGE_PAGE_FILE_H_
#define LODVIZ_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace lodviz::storage {

/// Fixed page size used by the whole storage layer.
inline constexpr size_t kPageSize = 8192;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = ~PageId(0);

/// A file laid out as an array of kPageSize pages, accessed with
/// pread/pwrite. Counts physical I/Os so the disk-vs-memory experiments
/// can report them.
///
/// The file is write-once: BTree::BulkLoad, single-threaded, writes each
/// page once at num_pages(), and from then on the pages are only read.
/// ReadPage/Sync are safe to call concurrently (positional I/O, atomic
/// counters) — the striped BufferPool reads from several shards at once.
/// Open is single-threaded setup, and the destructor closes the file: no
/// I/O may be in flight when either runs.
class PageFile {
 public:
  PageFile() = default;
  virtual ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Creates (truncating) or opens the file at `path`.
  Status Open(const std::string& path, bool truncate);

  bool is_open() const { return fd_ >= 0; }

  /// Reads page `id` into `buf` (kPageSize bytes). Loops until the full
  /// page is transferred: POSIX allows pread to return fewer bytes than
  /// requested, and a read landing mid-signal returns EINTR. Virtual (like
  /// WritePage and Sync) so tests can inject I/O failures (see
  /// storage_test.cc).
  virtual Status ReadPage(PageId id, void* buf);

  /// Writes `buf` (kPageSize bytes) to page `id`, looping on short writes
  /// and EINTR like ReadPage; writing at num_pages() grows the file by one
  /// page. One writer at a time.
  virtual Status WritePage(PageId id, const void* buf);

  /// Flushes file data to stable storage (fdatasync).
  virtual Status Sync();

  uint32_t num_pages() const {
    return num_pages_.load(std::memory_order_relaxed);
  }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  void ResetCounters() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
  }

 protected:
  /// Raw positional I/O seams; tests override these to inject short
  /// transfers and EINTR. Defaults delegate to ::pread / ::pwrite.
  virtual ssize_t PreadSome(void* buf, size_t count, off_t offset);
  virtual ssize_t PwriteSome(const void* buf, size_t count, off_t offset);

 private:
  /// Written only by Open under its single-threaded contract; the
  /// I/O entry points only read it.
  int fd_ = -1;
  std::atomic<uint32_t> num_pages_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
};

}  // namespace lodviz::storage

#endif  // LODVIZ_STORAGE_PAGE_FILE_H_
