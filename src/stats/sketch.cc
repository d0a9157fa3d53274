#include "stats/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace lodviz::stats {

uint64_t Fnv1aHash64(uint64_t value, uint64_t seed) {
  uint64_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xFF;
    h *= 1099511628211ULL;
  }
  // Final avalanche (splitmix64 tail) to decorrelate low bits.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  LODVIZ_CHECK(precision >= 4 && precision <= 18);
  registers_.assign(size_t{1} << precision, 0);
}

void HyperLogLog::Add(uint64_t item) {
  uint64_t h = Fnv1aHash64(item);
  size_t idx = h >> (64 - precision_);
  uint64_t rest = (h << precision_) | (size_t{1} << (precision_ - 1));
  uint8_t rank = static_cast<uint8_t>(std::countl_zero(rest) + 1);
  registers_[idx] = std::max(registers_[idx], rank);
}

double HyperLogLog::Estimate() const {
  size_t m = registers_.size();
  double alpha;
  switch (m) {
    case 16:
      alpha = 0.673;
      break;
    case 32:
      alpha = 0.697;
      break;
    case 64:
      alpha = 0.709;
      break;
    default:
      alpha = 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
  double sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double estimate = alpha * static_cast<double>(m) * static_cast<double>(m) / sum;
  if (estimate <= 2.5 * static_cast<double>(m) && zeros > 0) {
    // Small-range correction: linear counting.
    estimate = static_cast<double>(m) *
               std::log(static_cast<double>(m) / static_cast<double>(zeros));
  }
  return estimate;
}

}  // namespace lodviz::stats
