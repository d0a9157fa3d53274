#include "cube/data_cube.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/table_printer.h"

namespace lodviz::cube {

namespace {

double ApplyAgg(Agg agg, const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  switch (agg) {
    case Agg::kCount:
      return static_cast<double>(values.size());
    case Agg::kSum:
    case Agg::kAvg: {
      double sum = 0;
      for (double v : values) sum += v;
      return agg == Agg::kSum ? sum : sum / static_cast<double>(values.size());
    }
    case Agg::kMin:
      return *std::min_element(values.begin(), values.end());
    case Agg::kMax:
      return *std::max_element(values.begin(), values.end());
  }
  return 0.0;
}

}  // namespace

Result<DataCube> DataCube::FromStore(
    const rdf::TripleSource& source,
    const std::vector<std::string>& dimension_predicates,
    const std::vector<std::string>& measure_predicates) {
  if (dimension_predicates.empty()) {
    return Status::InvalidArgument("cube needs at least one dimension");
  }
  if (measure_predicates.empty()) {
    return Status::InvalidArgument("cube needs at least one measure");
  }
  DataCube cube;
  cube.dict_ = &source.dict();
  cube.dimension_names_ = dimension_predicates;
  cube.measure_names_ = measure_predicates;

  std::vector<rdf::TermId> dim_ids, measure_ids;
  for (const std::string& p : dimension_predicates) {
    rdf::TermId id = source.dict().Lookup(rdf::Term::Iri(p));
    if (id == rdf::kInvalidTermId) {
      return Status::NotFound("dimension predicate absent: " + p);
    }
    dim_ids.push_back(id);
  }
  for (const std::string& p : measure_predicates) {
    rdf::TermId id = source.dict().Lookup(rdf::Term::Iri(p));
    if (id == rdf::kInvalidTermId) {
      return Status::NotFound("measure predicate absent: " + p);
    }
    measure_ids.push_back(id);
  }

  // Candidate observations: subjects of the first dimension predicate.
  std::vector<rdf::TermId> subjects;
  source.Scan({rdf::kInvalidTermId, dim_ids[0], rdf::kInvalidTermId},
              [&](const rdf::Triple& t) {
                subjects.push_back(t.s);
                return true;
              });
  std::sort(subjects.begin(), subjects.end());
  subjects.erase(std::unique(subjects.begin(), subjects.end()),
                 subjects.end());

  for (rdf::TermId s : subjects) {
    Observation obs;
    bool complete = true;
    for (rdf::TermId d : dim_ids) {
      auto matches = source.Match({s, d, rdf::kInvalidTermId});
      if (matches.empty()) {
        complete = false;
        break;
      }
      obs.dims.push_back(matches.front().o);
    }
    if (!complete) continue;
    for (rdf::TermId m : measure_ids) {
      auto matches = source.Match({s, m, rdf::kInvalidTermId});
      if (matches.empty()) {
        complete = false;
        break;
      }
      Result<double> v = source.dict().NumberValue(matches.front().o);
      if (!v.ok()) {
        complete = false;
        break;
      }
      obs.measures.push_back(v.ValueOrDie());
    }
    if (complete) cube.observations_.push_back(std::move(obs));
  }
  if (cube.observations_.empty()) {
    return Status::NotFound("no complete observations found");
  }
  return cube;
}

std::string DataCube::ValueLabel(rdf::TermId value) const {
  if (dict_ != nullptr && dict_->Contains(value)) {
    return dict_->term(value).lexical;
  }
  std::string label = "#";
  label += std::to_string(value);
  return label;
}

std::vector<rdf::TermId> DataCube::DimensionValues(size_t dim) const {
  std::vector<rdf::TermId> values;
  for (const Observation& o : observations_) values.push_back(o.dims[dim]);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::sort(values.begin(), values.end(),
            [this](rdf::TermId a, rdf::TermId b) {
              return ValueLabel(a) < ValueLabel(b);
            });
  return values;
}

DataCube DataCube::Slice(size_t dim, rdf::TermId value) const {
  DataCube out;
  out.dict_ = dict_;
  out.measure_names_ = measure_names_;
  for (size_t d = 0; d < dimension_names_.size(); ++d) {
    if (d != dim) out.dimension_names_.push_back(dimension_names_[d]);
  }
  for (const Observation& o : observations_) {
    if (o.dims[dim] != value) continue;
    Observation kept;
    for (size_t d = 0; d < o.dims.size(); ++d) {
      if (d != dim) kept.dims.push_back(o.dims[d]);
    }
    kept.measures = o.measures;
    out.observations_.push_back(std::move(kept));
  }
  return out;
}

DataCube DataCube::Dice(size_t dim, const std::set<rdf::TermId>& values) const {
  DataCube out;
  out.dict_ = dict_;
  out.dimension_names_ = dimension_names_;
  out.measure_names_ = measure_names_;
  for (const Observation& o : observations_) {
    if (values.count(o.dims[dim])) out.observations_.push_back(o);
  }
  return out;
}

std::vector<DataCube::RollupRow> DataCube::RollUp(
    const std::vector<size_t>& keep_dims, size_t measure, Agg agg) const {
  std::map<std::vector<rdf::TermId>, std::vector<double>> groups;
  for (const Observation& o : observations_) {
    std::vector<rdf::TermId> key;
    key.reserve(keep_dims.size());
    for (size_t d : keep_dims) key.push_back(o.dims[d]);
    groups[key].push_back(o.measures[measure]);
  }
  std::vector<RollupRow> rows;
  for (const auto& [key, values] : groups) {
    RollupRow row;
    row.group = key;
    row.value = ApplyAgg(agg, values);
    row.count = values.size();
    rows.push_back(std::move(row));
  }
  return rows;
}

DataCube::PivotTable DataCube::Pivot(size_t row_dim, size_t col_dim,
                                     size_t measure, Agg agg) const {
  PivotTable table;
  table.row_values = DimensionValues(row_dim);
  table.col_values = DimensionValues(col_dim);
  std::map<std::pair<rdf::TermId, rdf::TermId>, std::vector<double>> groups;
  for (const Observation& o : observations_) {
    groups[{o.dims[row_dim], o.dims[col_dim]}].push_back(o.measures[measure]);
  }
  table.cells.assign(table.row_values.size(),
                     std::vector<double>(table.col_values.size(),
                                         std::numeric_limits<double>::quiet_NaN()));
  for (size_t r = 0; r < table.row_values.size(); ++r) {
    for (size_t c = 0; c < table.col_values.size(); ++c) {
      auto it = groups.find({table.row_values[r], table.col_values[c]});
      if (it != groups.end()) table.cells[r][c] = ApplyAgg(agg, it->second);
    }
  }
  return table;
}

std::string DataCube::PivotToString(const PivotTable& table) const {
  std::vector<std::string> header = {""};
  for (rdf::TermId c : table.col_values) header.push_back(ValueLabel(c));
  TablePrinter tp(header);
  for (size_t r = 0; r < table.row_values.size(); ++r) {
    std::vector<std::string> row = {ValueLabel(table.row_values[r])};
    for (double v : table.cells[r]) {
      if (std::isnan(v)) {
        row.push_back("-");
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", v);
        row.push_back(buf);
      }
    }
    tp.AddRow(std::move(row));
  }
  return tp.ToString();
}

}  // namespace lodviz::cube
