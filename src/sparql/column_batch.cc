#include "sparql/column_batch.h"

#include <algorithm>

namespace lodviz::sparql {

BatchListView::BatchListView(const std::vector<ColumnBatch>& batches)
    : batches_(&batches) {
  prefix_.reserve(batches.size() + 1);
  size_t sum = 0;
  for (const ColumnBatch& b : batches) {
    prefix_.push_back(sum);
    sum += b.active();
  }
  prefix_.push_back(sum);
  total_ = sum;
}

size_t BatchListView::FindBatch(size_t li) const {
  // upper_bound lands past every batch whose prefix is <= li, which also
  // skips empty batches (their prefix equals the next batch's).
  auto it = std::upper_bound(prefix_.begin(), prefix_.end() - 1, li);
  return static_cast<size_t>(it - prefix_.begin()) - 1;
}

size_t TotalActiveRows(const std::vector<ColumnBatch>& batches) {
  size_t sum = 0;
  for (const ColumnBatch& b : batches) sum += b.active();
  return sum;
}

}  // namespace lodviz::sparql
