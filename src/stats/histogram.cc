#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

namespace lodviz::stats {

Result<Histogram> Histogram::Build(const std::vector<double>& values,
                                   size_t num_bins, BinningKind kind) {
  if (num_bins == 0) return Status::InvalidArgument("num_bins must be > 0");
  if (values.empty()) return Status::InvalidArgument("no values to bin");

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  double lo = sorted.front();
  double hi = sorted.back();

  std::vector<Bin> bins;
  if (kind == BinningKind::kEquiWidth) {
    if (hi == lo) hi = lo + 1.0;  // degenerate: single-valued data
    double width = (hi - lo) / static_cast<double>(num_bins);
    bins.resize(num_bins);
    for (size_t i = 0; i < num_bins; ++i) {
      bins[i].lo = lo + width * static_cast<double>(i);
      bins[i].hi = (i + 1 == num_bins) ? hi : lo + width * static_cast<double>(i + 1);
    }
  } else {
    // Equi-depth: bucket boundaries at value quantiles.
    size_t n = sorted.size();
    size_t k = std::min(num_bins, n);
    bins.resize(k);
    for (size_t i = 0; i < k; ++i) {
      size_t b = i * n / k;
      size_t e = (i + 1) * n / k;  // exclusive
      bins[i].lo = sorted[b];
      bins[i].hi = (i + 1 == k) ? sorted[n - 1] : sorted[e];
    }
  }

  Histogram h(std::move(bins), kind);
  for (double v : values) h.Add(v);
  return h;
}

size_t Histogram::BinIndex(double value) const {
  // Binary search on bin lower bounds.
  size_t lo = 0, hi = bins_.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (value >= bins_[mid].lo) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void Histogram::Add(double value) {
  Bin& bin = bins_[BinIndex(value)];
  ++bin.count;
  bin.stats.Add(value);
  ++total_;
}

}  // namespace lodviz::stats
