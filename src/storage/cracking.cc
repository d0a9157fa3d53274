#include "storage/cracking.h"

#include <algorithm>

namespace lodviz::storage {

CrackerColumn::CrackerColumn(std::vector<double> values)
    : data_(std::move(values)) {}

size_t CrackerColumn::CrackAt(double v) {
  auto it = index_.find(v);
  if (it != index_.end()) return it->second;

  // Locate the piece [piece_lo, piece_hi) that v falls into.
  size_t piece_lo = 0;
  size_t piece_hi = data_.size();
  auto ub = index_.upper_bound(v);
  if (ub != index_.end()) piece_hi = ub->second;
  if (ub != index_.begin()) {
    auto prev = std::prev(ub);
    piece_lo = prev->second;
  }

  // Partition the piece: < v to the left, >= v to the right.
  auto mid = std::partition(data_.begin() + piece_lo, data_.begin() + piece_hi,
                            [v](double x) { return x < v; });
  touched_ += piece_hi - piece_lo;
  size_t pos = static_cast<size_t>(mid - data_.begin());
  index_[v] = pos;
  return pos;
}

uint64_t CrackerColumn::CountRange(double lo, double hi) {
  size_t b = CrackAt(lo);
  size_t e = CrackAt(hi);
  return e >= b ? e - b : 0;
}

}  // namespace lodviz::storage
