#ifndef LODVIZ_STATS_SKETCH_H_
#define LODVIZ_STATS_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lodviz::stats {

/// 64-bit FNV-1a with a splitmix64 finish, the hash shared by the
/// sketches below.
uint64_t Fnv1aHash64(uint64_t value, uint64_t seed = 1469598103934665603ULL);

/// Count-Min sketch update path: `depth` rows of `width` counters, one
/// counter per row bumped per item. Only the update is kept (timed by
/// micro_substrates); nothing reads an estimate back.
class CountMinSketch {
 public:
  /// width: counters per row (error ~ 2N/width); depth: rows
  /// (failure prob ~ 2^-depth).
  CountMinSketch(size_t width, size_t depth);

  void Add(uint64_t item, uint64_t count = 1);

  uint64_t total() const { return total_; }

 private:
  size_t Index(size_t row, uint64_t hash) const;

  size_t width_;
  size_t depth_;
  uint64_t total_ = 0;
  std::vector<uint64_t> table_;  // depth_ rows of width_ counters
};

/// HyperLogLog distinct-count estimator (~1.04/sqrt(2^precision) relative
/// error). Used for cheap per-property distinct counts in dataset profiles.
class HyperLogLog {
 public:
  /// precision in [4, 18]; 2^precision registers.
  explicit HyperLogLog(int precision = 12);

  void Add(uint64_t item);

  /// Estimated number of distinct items added.
  double Estimate() const;

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace lodviz::stats

#endif  // LODVIZ_STATS_SKETCH_H_
