#ifndef LODVIZ_SPARQL_COLUMN_BATCH_H_
#define LODVIZ_SPARQL_COLUMN_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "rdf/dictionary.h"
#include "sparql/planner.h"

namespace lodviz::sparql {

/// Rows per ColumnBatch. Chosen so one batch's columns fit comfortably in
/// L1/L2 for typical widths (8 slots x 1024 rows x 4 bytes = 32 KiB) while
/// amortizing per-batch overhead over enough rows that per-row virtual
/// dispatch disappears from the profile.
inline constexpr size_t kBatchRows = 1024;

/// One column of a ColumnBatch: the TermIds of a single slot across the
/// batch's rows. Two encodings:
///
///   constant — every row holds the same value (one TermId, no array).
///     This is the natural state of seed slots, slots bound by plan
///     constants, and slots not yet touched by any pattern (all
///     kInvalidTermId); appending a repeated value keeps it O(1).
///   dense    — one TermId per row.
///
/// A segment starts constant and demotes to dense on the first append
/// that disagrees with the constant; it never promotes back. The segment
/// does not track its own length — the owning batch's row count is the
/// length of every column, passed in by the append paths.
class ColumnSegment {
 public:
  [[nodiscard]] bool constant() const { return constant_; }

  /// Value shared by all rows; meaningful only while constant().
  [[nodiscard]] rdf::TermId constant_value() const { return value_; }

  [[nodiscard]] rdf::TermId at(uint32_t row) const {
    return constant_ ? value_ : dense_[row];
  }

  /// Appends one value to a column currently `len` rows long.
  void Append(rdf::TermId v, size_t len) {
    if (constant_) {
      if (len == 0) {
        value_ = v;
        return;
      }
      if (v == value_) return;
      Densify(len);
    }
    dense_.push_back(v);
  }

  /// Appends `n` copies of `v`; O(1) while the column stays constant.
  void AppendRepeat(rdf::TermId v, size_t n, size_t len) {
    if (constant_) {
      if (len == 0) {
        value_ = v;
        return;
      }
      if (v == value_) return;
      Densify(len);
    }
    dense_.resize(dense_.size() + n, v);
  }

  /// Appends `n` row-varying values.
  void AppendDense(const rdf::TermId* v, size_t n, size_t len) {
    if (constant_) {
      // Stay constant when the incoming run happens to agree throughout.
      size_t i = 0;
      if (len == 0 && n > 0) {
        value_ = v[0];
        i = 1;
      }
      for (; i < n; ++i) {
        if (v[i] != value_) break;
      }
      if (i == n) return;
      Densify(len + i);
      dense_.insert(dense_.end(), v + i, v + n);
      return;
    }
    dense_.insert(dense_.end(), v, v + n);
  }

  /// Back to an empty constant segment, keeping dense capacity.
  void Reset() {
    constant_ = true;
    value_ = rdf::kInvalidTermId;
    dense_.clear();
  }

 private:
  void Densify(size_t len) {
    dense_.assign(len, value_);
    constant_ = false;
  }

  bool constant_ = true;
  rdf::TermId value_ = rdf::kInvalidTermId;
  std::vector<rdf::TermId> dense_;
};

/// A chunk of up to kBatchRows intermediate solutions in columnar form:
/// one ColumnSegment per slot plus an optional selection vector. The
/// selection vector (ascending physical row indices) is how filters drop
/// rows without materializing anything — downstream operators iterate
/// active rows only. Logical row order is physical order restricted to
/// the selection, which is what keeps the executor's output order
/// independent of batch boundaries (see DESIGN.md §4.9).
class ColumnBatch {
 public:
  ColumnBatch() = default;
  explicit ColumnBatch(size_t width) : cols_(width) {}

  [[nodiscard]] size_t width() const { return cols_.size(); }

  /// Physical rows (ignoring the selection).
  [[nodiscard]] size_t rows() const { return rows_; }

  /// Rows surviving the selection; equals rows() when none is set.
  [[nodiscard]] size_t active() const {
    return has_sel_ ? sel_.size() : rows_;
  }

  [[nodiscard]] bool has_selection() const { return has_sel_; }

  /// Physical index of the i-th active row.
  [[nodiscard]] uint32_t ActiveRow(size_t i) const {
    return has_sel_ ? sel_[i] : static_cast<uint32_t>(i);
  }

  /// Installs a selection (ascending physical row indices). Appending to
  /// a batch with a selection is a bug: writers fill a batch first, then
  /// filters restrict it.
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    has_sel_ = true;
  }

  [[nodiscard]] const ColumnSegment& col(size_t c) const { return cols_[c]; }

  [[nodiscard]] rdf::TermId at(uint32_t phys_row, size_t c) const {
    return cols_[c].at(phys_row);
  }

  /// Copies one physical row into `out` (width() TermIds) — the bridge to
  /// per-row code (generic filter expressions, CONSTRUCT templates).
  void GatherRow(uint32_t phys_row, rdf::TermId* out) const {
    for (size_t c = 0; c < cols_.size(); ++c) out[c] = cols_[c].at(phys_row);
  }

  /// Appends one row given as width() contiguous TermIds.
  void AppendRow(const rdf::TermId* row) {
    LODVIZ_DCHECK(!has_sel_);
    for (size_t c = 0; c < cols_.size(); ++c) cols_[c].Append(row[c], rows_);
    ++rows_;
  }

  /// One column of an AppendRun that varies per row; every column not
  /// listed repeats the base solution's value.
  struct RunColumn {
    SlotId slot;
    const rdf::TermId* values;  // n entries
  };

  /// Appends `n` rows that all equal the base solution `sol` except at
  /// `num_var` columns, which take per-row values. This is the batch
  /// extend primitive: carried-over columns cost O(1) while constant
  /// (seed/unbound slots) instead of a per-row copy.
  void AppendRun(const rdf::TermId* sol, size_t n, const RunColumn* var,
                 size_t num_var) {
    LODVIZ_DCHECK(!has_sel_);
    for (size_t c = 0; c < cols_.size(); ++c) {
      const rdf::TermId* values = nullptr;
      for (size_t j = 0; j < num_var; ++j) {
        if (var[j].slot == c) {
          values = var[j].values;
          break;
        }
      }
      if (values != nullptr) {
        cols_[c].AppendDense(values, n, rows_);
      } else {
        cols_[c].AppendRepeat(sol[c], n, rows_);
      }
    }
    rows_ += n;
  }

  /// Drops all rows and the selection, keeping column capacity (for
  /// seed-batch reuse in the OPTIONAL loop).
  void Clear() {
    for (ColumnSegment& c : cols_) c.Reset();
    rows_ = 0;
    has_sel_ = false;
    sel_.clear();
  }

 private:
  std::vector<ColumnSegment> cols_;
  size_t rows_ = 0;
  bool has_sel_ = false;
  std::vector<uint32_t> sel_;
};

/// Flattened-row addressing over a list of batches: logical row i is the
/// i-th active row across the list in order. Built once per consumer (a
/// prefix-sum array), then chunks of the logical range resolve to
/// (batch, physical row) pairs — this is how ParallelReduce chunks and
/// the engine's late-materialization tail address batch output without
/// compacting selections away.
class BatchListView {
 public:
  explicit BatchListView(const std::vector<ColumnBatch>& batches);

  [[nodiscard]] size_t total() const { return total_; }

  /// Calls fn(batch, physical_row) for logical rows [begin, end), in
  /// order.
  template <typename Fn>
  void ForEachRow(size_t begin, size_t end, Fn&& fn) const {
    size_t b = FindBatch(begin);
    size_t li = begin;
    while (li < end) {
      const ColumnBatch& batch = (*batches_)[b];
      size_t local = li - prefix_[b];
      const size_t local_end =
          std::min(batch.active(), local + (end - li));
      for (; local < local_end; ++local, ++li) {
        fn(batch, batch.ActiveRow(local));
      }
      ++b;
    }
  }

  /// Resolves one logical row to (batch index, physical row).
  [[nodiscard]] std::pair<size_t, uint32_t> Locate(size_t li) const {
    const size_t b = FindBatch(li);
    return {b, (*batches_)[b].ActiveRow(li - prefix_[b])};
  }

 private:
  /// Index of the batch containing logical row `li` (binary search over
  /// the prefix sums, skipping empty batches).
  [[nodiscard]] size_t FindBatch(size_t li) const;

  const std::vector<ColumnBatch>* batches_;
  std::vector<size_t> prefix_;  // prefix_[i] = active rows before batch i
  size_t total_ = 0;
};

/// Sum of active rows across `batches` (cheaper than a BatchListView when
/// only the count is needed).
[[nodiscard]] size_t TotalActiveRows(const std::vector<ColumnBatch>& batches);

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_COLUMN_BATCH_H_
