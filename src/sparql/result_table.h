#ifndef LODVIZ_SPARQL_RESULT_TABLE_H_
#define LODVIZ_SPARQL_RESULT_TABLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "rdf/term.h"

namespace lodviz::sparql {

/// Width contract of a row-appending table: a row must match the table's
/// column count exactly.
inline void CheckRowWidth(size_t row_width, size_t table_width) {
  LODVIZ_CHECK(row_width == table_width)
      << "row width " << row_width << " != table width " << table_width;
}

/// A materialized query result: column names + rows of terms. Unbound
/// cells (OPTIONAL misses) hold an empty-IRI sentinel with `bound = false`.
struct ResultCell {
  rdf::Term term;
  bool bound = true;
};

class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<ResultCell>>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  /// Appends one row; its width must match the column count.
  void AddRow(std::vector<ResultCell> row) {
    CheckRowWidth(row.size(), columns_.size());
    rows_.push_back(std::move(row));
  }

  /// Pre-sizes the row store (the engine's materialization paths know
  /// their output cardinality up front).
  void Reserve(size_t rows) { rows_.reserve(rows); }

  /// ASCII rendering for CLI examples.
  std::string ToString(size_t max_rows = 50) const;

  /// For ASK queries: whether any solution existed.
  bool ask_result = false;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<ResultCell>> rows_;
};

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_RESULT_TABLE_H_
