#include "storage/page_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace lodviz::storage {

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PageFile::Open(const std::string& path, bool truncate) {
  if (fd_ >= 0) return Status::InvalidArgument("PageFile already open");
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::IoError("open '" + path + "': " + std::strerror(errno));
  }
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return Status::IoError("lseek failed");
  num_pages_.store(
      static_cast<uint32_t>(static_cast<uint64_t>(size) / kPageSize),
      std::memory_order_relaxed);
  return Status::OK();
}

ssize_t PageFile::PreadSome(void* buf, size_t count, off_t offset) {
  return ::pread(fd_, buf, count, offset);
}

ssize_t PageFile::PwriteSome(const void* buf, size_t count, off_t offset) {
  return ::pwrite(fd_, buf, count, offset);
}

Status PageFile::ReadPage(PageId id, void* buf) {
  // A single pread may legally transfer fewer than kPageSize bytes (or
  // fail with EINTR); treating that as a hard error corrupted reads on
  // signal-heavy hosts. Keep issuing reads at the advancing offset until
  // the page is complete.
  char* dst = static_cast<char*>(buf);
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = PreadSome(dst + done, kPageSize - done,
                          static_cast<off_t>(id) * static_cast<off_t>(kPageSize) +
                              static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read of page " + std::to_string(id) + ": " +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("short read of page " + std::to_string(id) +
                             " (eof at byte " + std::to_string(done) + ")");
    }
    done += static_cast<size_t>(n);
  }
  reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status PageFile::WritePage(PageId id, const void* buf) {
  const char* src = static_cast<const char*>(buf);
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = PwriteSome(src + done, kPageSize - done,
                           static_cast<off_t>(id) * static_cast<off_t>(kPageSize) +
                               static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write of page " + std::to_string(id) + ": " +
                             std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("short write of page " + std::to_string(id) +
                             " (stalled at byte " + std::to_string(done) + ")");
    }
    done += static_cast<size_t>(n);
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  if (id >= num_pages()) num_pages_.store(id + 1, std::memory_order_relaxed);
  return Status::OK();
}

Status PageFile::Sync() {
  if (fd_ < 0) return Status::InvalidArgument("PageFile not open");
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(std::string("fdatasync: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace lodviz::storage
