#include "sparql/result_table.h"

#include <sstream>

#include "common/table_printer.h"

namespace lodviz::sparql {

std::string ResultTable::ToString(size_t max_rows) const {
  std::vector<std::string> header;
  for (const std::string& c : columns_) header.push_back("?" + c);
  if (header.empty()) header.push_back("(ask)");
  TablePrinter tp(header);
  size_t shown = 0;
  for (const auto& row : rows_) {
    if (shown++ >= max_rows) break;
    std::vector<std::string> cells;
    for (const ResultCell& cell : row) {
      cells.push_back(cell.bound ? cell.term.ToNTriples() : "—");
    }
    if (cells.empty()) cells.push_back(ask_result ? "true" : "false");
    tp.AddRow(std::move(cells));
  }
  std::ostringstream oss;
  tp.Print(oss);
  if (rows_.size() > max_rows) {
    oss << "... (" << rows_.size() - max_rows << " more rows)\n";
  }
  return oss.str();
}

}  // namespace lodviz::sparql
