#ifndef LODVIZ_STATS_HISTOGRAM_H_
#define LODVIZ_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "stats/moments.h"

namespace lodviz::stats {

/// One histogram bucket: [lo, hi) except the last, which is [lo, hi].
struct Bin {
  double lo = 0.0;
  double hi = 0.0;
  uint64_t count = 0;
  RunningMoments stats;
};

/// Binning discipline — the two classic data-reduction aggregations the
/// survey cites (binning [42, 138]; equi-depth mirrors HETree-C leaves,
/// equi-width mirrors HETree-R).
enum class BinningKind {
  kEquiWidth,  ///< equal value ranges per bucket
  kEquiDepth,  ///< (approximately) equal counts per bucket
};

/// A one-dimensional histogram over numeric (or epoch-encoded temporal)
/// values, built in one shot from a value vector.
class Histogram {
 public:
  /// Builds from the finite `values` (copied & sorted internally);
  /// NaN, INF and -INF are skipped. InvalidArgument if none is finite.
  static Result<Histogram> Build(const std::vector<double>& values,
                                 size_t num_bins, BinningKind kind);

  const std::vector<Bin>& bins() const { return bins_; }
  BinningKind kind() const { return kind_; }
  uint64_t total_count() const { return total_; }

  /// Index of the bin containing `value` (clamped).
  size_t BinIndex(double value) const;

 private:
  Histogram(std::vector<Bin> bins, BinningKind kind)
      : bins_(std::move(bins)), kind_(kind) {}

  /// Adds a value to the bin containing it.
  void Add(double value);

  std::vector<Bin> bins_;
  BinningKind kind_;
  uint64_t total_ = 0;
};

}  // namespace lodviz::stats

#endif  // LODVIZ_STATS_HISTOGRAM_H_
