#ifndef LODVIZ_STORAGE_LEAF_CODEC_H_
#define LODVIZ_STORAGE_LEAF_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "storage/page_file.h"

namespace lodviz::storage {

/// 128-bit key ordered lexicographically (hi, lo). Triple permutations are
/// packed into this: e.g. SPO order uses hi = (s << 32) | p, lo = o.
struct Key128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Key128& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator<(const Key128& other) const {
    return hi != other.hi ? hi < other.hi : lo < other.lo;
  }
  bool operator<=(const Key128& other) const { return !(other < *this); }

  static Key128 Min() { return {0, 0}; }
  static Key128 Max() { return {~0ULL, ~0ULL}; }
};

/// Restart interval of the compressed leaf format: every 16th entry's full
/// key lands in the page's restart directory, so in-page search is a
/// binary search over restarts plus a bounded decode of one block.
inline constexpr size_t kLeafRestartInterval = 16;

// ---- unsigned LEB128 varints ----

/// Bytes PutVarint64 writes for `v` (1..10).
inline size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Appends `v` LEB128-encoded; returns the advanced write pointer.
inline uint8_t* PutVarint64(uint8_t* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *dst++ = static_cast<uint8_t>(v);
  return dst;
}

/// Decodes one varint from [p, limit); returns the advanced read pointer,
/// or nullptr on truncated/oversized input.
inline const uint8_t* GetVarint64(const uint8_t* p, const uint8_t* limit,
                                  uint64_t* v) {
  uint64_t result = 0;
  for (unsigned shift = 0; shift < 64 && p < limit; shift += 7) {
    const uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return p;
    }
  }
  return nullptr;
}

/// B+-tree leaves delta-encode sorted runs (RDF-3X/trident-style varint
/// gap coding), so a page holds several times the triples that 24-byte
/// Key128+value entries would: fewer pages per scan and an effectively
/// larger buffer pool.
///
/// Compressed-leaf byte layout (offsets page-relative; `header_bytes` is
/// the B+-tree's own PageHeader, which the codec never touches):
///
///   [0, header_bytes)              PageHeader (is_leaf != 0)
///   [header_bytes, +2)             uint16 n_restarts
///   [header_bytes+2, +2)           uint16 reserved
///   [dir, dir + 20*n_restarts)     restart directory, 20-byte entries:
///                                    Key128 first_key  (unaligned, memcpy)
///                                    uint16 payload offset (page-relative)
///                                    uint16 reserved
///   [payload...]                   delta-coded entries, one block per
///                                  restart (kLeafRestartInterval entries)
///
/// Block payload: entry 0's key IS the restart key (no key bytes). Every
/// entry starts with a tag byte — bit0: hi changed vs predecessor, bit1:
/// value is non-zero (zero values, the common triple-index case, cost no
/// bytes). Then the key gap: varint(hi_delta) + varint(lo) when hi
/// changed, else varint(lo_delta); keys are strictly ascending so gaps
/// are plain unsigned varints. Then varint(value) if bit1.
namespace leaf_internal {

inline constexpr size_t kRestartEntryBytes = 16 + 2 + 2;
inline constexpr uint8_t kTagHiChanged = 1;
inline constexpr uint8_t kTagHasValue = 2;

inline size_t DirPos(size_t header_bytes) { return header_bytes + 4; }

inline void StoreRestart(uint8_t* page, size_t header_bytes, size_t index,
                         const Key128& key, uint16_t offset) {
  uint8_t* e = page + DirPos(header_bytes) + index * kRestartEntryBytes;
  std::memcpy(e, &key.hi, 8);
  std::memcpy(e + 8, &key.lo, 8);
  std::memcpy(e + 16, &offset, 2);
  std::memset(e + 18, 0, 2);
}

inline Key128 LoadRestartKey(const uint8_t* page, size_t header_bytes,
                             size_t index) {
  const uint8_t* e = page + DirPos(header_bytes) + index * kRestartEntryBytes;
  Key128 k;
  std::memcpy(&k.hi, e, 8);
  std::memcpy(&k.lo, e + 8, 8);
  return k;
}

inline uint16_t LoadRestartOffset(const uint8_t* page, size_t header_bytes,
                                  size_t index) {
  const uint8_t* e = page + DirPos(header_bytes) + index * kRestartEntryBytes;
  uint16_t off;
  std::memcpy(&off, e + 16, 2);
  return off;
}

}  // namespace leaf_internal

/// Builds one compressed leaf. Entries are staged in local buffers and
/// written to the page at Finish(), so a failed Append (page full) leaves
/// the page untouched and the caller simply starts the next leaf.
/// Keys must arrive strictly ascending (checked in debug builds).
class CompressedLeafBuilder {
 public:
  /// `page` is a kPageSize buffer; bytes [0, header_bytes) are reserved
  /// for the caller's page header.
  CompressedLeafBuilder(uint8_t* page, size_t header_bytes)
      : page_(page), header_bytes_(header_bytes) {
    payload_.reserve(kPageSize);
  }

  /// Appends one entry; false when it would overflow the page (the staged
  /// contents are unchanged — finish this leaf and retry on the next).
  [[nodiscard]] bool Append(const Key128& key, uint64_t value) {
    LODVIZ_DCHECK(count_ == 0 || prev_ < key)
        << "compressed leaf keys must be strictly ascending";
    if (count_ == 0xFFFF) return false;
    const bool restart = (count_ % kLeafRestartInterval) == 0;

    uint8_t buf[1 + 10 + 10 + 10];
    uint8_t* w = buf + 1;
    uint8_t tag = 0;
    if (!restart) {
      if (key.hi != prev_.hi) {
        tag |= leaf_internal::kTagHiChanged;
        w = PutVarint64(w, key.hi - prev_.hi);
        w = PutVarint64(w, key.lo);
      } else {
        w = PutVarint64(w, key.lo - prev_.lo);
      }
    }
    if (value != 0) {
      tag |= leaf_internal::kTagHasValue;
      w = PutVarint64(w, value);
    }
    buf[0] = tag;
    const size_t entry_bytes = static_cast<size_t>(w - buf);

    const size_t restarts_after = restarts_.size() + (restart ? 1 : 0);
    const size_t used_after =
        leaf_internal::DirPos(header_bytes_) +
        restarts_after * leaf_internal::kRestartEntryBytes +
        payload_.size() + entry_bytes;
    if (used_after > kPageSize) return false;

    if (restart) {
      restarts_.push_back({key, static_cast<uint16_t>(payload_.size())});
    }
    payload_.insert(payload_.end(), buf, w);
    prev_ = key;
    ++count_;
    return true;
  }

  size_t count() const { return count_; }

  /// Writes directory + payload into the page and returns the entry count.
  /// The caller still owns the page header (entry count, leaf format).
  uint16_t Finish() {
    const uint16_t n_restarts = static_cast<uint16_t>(restarts_.size());
    std::memcpy(page_ + header_bytes_, &n_restarts, 2);
    std::memset(page_ + header_bytes_ + 2, 0, 2);
    const size_t payload_pos =
        leaf_internal::DirPos(header_bytes_) +
        restarts_.size() * leaf_internal::kRestartEntryBytes;
    for (size_t i = 0; i < restarts_.size(); ++i) {
      leaf_internal::StoreRestart(
          page_, header_bytes_, i, restarts_[i].key,
          static_cast<uint16_t>(payload_pos + restarts_[i].offset));
    }
    std::memcpy(page_ + payload_pos, payload_.data(), payload_.size());
    return static_cast<uint16_t>(count_);
  }

 private:
  struct Restart {
    Key128 key;
    uint16_t offset;  // payload-relative until Finish()
  };

  uint8_t* page_;
  size_t header_bytes_;
  std::vector<Restart> restarts_;
  std::vector<uint8_t> payload_;
  Key128 prev_;
  size_t count_ = 0;
};

/// Reads one compressed leaf built by CompressedLeafBuilder. Stateless
/// over const page bytes, so concurrent readers of one pinned page are
/// safe. `ItemT` is any struct with Key128 `key` and uint64_t `value`
/// members (storage::BTree::Item, bench-local mirrors, ...).
class CompressedLeafReader {
 public:
  /// `count` comes from the caller's page header.
  CompressedLeafReader(const uint8_t* page, size_t header_bytes, size_t count)
      : page_(page), header_bytes_(header_bytes), count_(count) {
    uint16_t n;
    std::memcpy(&n, page_ + header_bytes_, 2);
    n_restarts_ = n;
  }

  size_t count() const { return count_; }
  size_t num_blocks() const { return n_restarts_; }

  /// Entries in block `b` (the last block may be short).
  size_t BlockCount(size_t b) const {
    const size_t begin = b * kLeafRestartInterval;
    const size_t end = std::min(count_, begin + kLeafRestartInterval);
    return end - begin;
  }

  Key128 RestartKey(size_t b) const {
    return leaf_internal::LoadRestartKey(page_, header_bytes_, b);
  }

  /// Decodes block `b` into `out` (room for kLeafRestartInterval items);
  /// returns the number decoded.
  template <typename ItemT>
  size_t DecodeBlock(size_t b, ItemT* out) const {
    const size_t n = BlockCount(b);
    const uint8_t* p =
        page_ + leaf_internal::LoadRestartOffset(page_, header_bytes_, b);
    const uint8_t* limit = page_ + kPageSize;
    Key128 key = RestartKey(b);
    for (size_t i = 0; i < n; ++i) {
      const uint8_t tag = *p++;
      if (i != 0) {
        uint64_t a = 0;
        if (tag & leaf_internal::kTagHiChanged) {
          p = GetVarint64(p, limit, &a);
          LODVIZ_CHECK(p != nullptr) << "corrupt compressed leaf";
          key.hi += a;
          p = GetVarint64(p, limit, &key.lo);
        } else {
          p = GetVarint64(p, limit, &a);
          key.lo += a;
        }
        LODVIZ_CHECK(p != nullptr) << "corrupt compressed leaf";
      }
      uint64_t value = 0;
      if (tag & leaf_internal::kTagHasValue) {
        p = GetVarint64(p, limit, &value);
        LODVIZ_CHECK(p != nullptr) << "corrupt compressed leaf";
      }
      out[i].key = key;
      out[i].value = value;
    }
    return n;
  }

  /// First block that can contain a key >= `lo`: the last block whose
  /// restart key is <= lo (earlier blocks end below lo), clamped to 0.
  size_t SeekBlock(const Key128& lo) const {
    size_t first = 0, last = n_restarts_;
    while (last - first > 1) {
      const size_t mid = (first + last) / 2;
      if (RestartKey(mid) <= lo) {
        first = mid;
      } else {
        last = mid;
      }
    }
    return first;
  }

  /// Appends every entry with lo <= key <= hi to `out`, in key order, and
  /// adds the number of entries it decoded to `*decoded`. Decoding starts
  /// at SeekBlock(lo) and stops before the first block whose restart key
  /// is above `hi` and at the first entry above `hi`, so a narrow range
  /// decodes only the blocks it overlaps. Returns true when the leaf holds
  /// a key above `hi`: no later leaf can then hold one in range.
  template <typename ItemT>
  bool DecodeRange(const Key128& lo, const Key128& hi, std::vector<ItemT>* out,
                   uint64_t* decoded) const {
    if (count_ == 0) return false;
    ItemT block[kLeafRestartInterval];
    for (size_t b = SeekBlock(lo); b < n_restarts_; ++b) {
      if (hi < RestartKey(b)) return true;
      const size_t n = DecodeBlock(b, block);
      *decoded += n;
      for (size_t i = 0; i < n; ++i) {
        if (hi < block[i].key) return true;
        if (lo <= block[i].key) out->push_back(block[i]);
      }
    }
    return false;
  }

  /// Point lookup; false when absent.
  bool Find(const Key128& key, uint64_t* value) const {
    if (count_ == 0) return false;
    struct Entry {
      Key128 key;
      uint64_t value;
    } block[kLeafRestartInterval];
    const size_t b = SeekBlock(key);
    const size_t n = DecodeBlock(b, block);
    for (size_t i = 0; i < n; ++i) {
      if (block[i].key == key) {
        *value = block[i].value;
        return true;
      }
      if (key < block[i].key) break;
    }
    return false;
  }

 private:
  const uint8_t* page_;
  size_t header_bytes_;
  size_t count_;
  size_t n_restarts_;
};

}  // namespace lodviz::storage

#endif  // LODVIZ_STORAGE_LEAF_CODEC_H_
