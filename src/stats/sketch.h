#ifndef LODVIZ_STATS_SKETCH_H_
#define LODVIZ_STATS_SKETCH_H_

#include <cstdint>
#include <vector>

namespace lodviz::stats {

/// 64-bit FNV-1a with a splitmix64 finish, the hash the HyperLogLog
/// below applies to each item.
uint64_t Fnv1aHash64(uint64_t value, uint64_t seed = 1469598103934665603ULL);

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
