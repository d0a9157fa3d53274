#ifndef LODVIZ_STORAGE_CRACKING_H_
#define LODVIZ_STORAGE_CRACKING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace lodviz::storage {

/// Database cracking [67]: an adaptive index that physically reorganizes a
/// column as a side effect of the range queries an exploration session
/// issues — exactly the "indexes created incrementally and adaptively
/// throughout exploration" technique the survey highlights (used for data
/// series in [144]).
///
/// Each range query partitions (cracks) only the pieces its bounds fall
/// into, so early queries cost close to a scan while later queries approach
/// index speed — with zero up-front preprocessing.
class CrackerColumn {
 public:
  explicit CrackerColumn(std::vector<double> values);

  /// Count of values in [lo, hi); also cracks.
  uint64_t CountRange(double lo, double hi);

  size_t size() const { return data_.size(); }
  /// Number of crack boundaries accumulated so far.
  size_t num_cracks() const { return index_.size(); }
  /// Elements moved by partitioning since construction (work accounting).
  uint64_t elements_touched() const { return touched_; }

  /// Direct access for verification.
  const std::vector<double>& data() const { return data_; }

 private:
  /// Ensures a crack at `v`; returns the index of the first element >= v.
  size_t CrackAt(double v);

  std::vector<double> data_;
  // pivot value -> position of first element >= pivot. Elements before the
  // position are < pivot; elements at/after are >= pivot.
  std::map<double, size_t> index_;
  uint64_t touched_ = 0;
};

}  // namespace lodviz::storage

#endif  // LODVIZ_STORAGE_CRACKING_H_
