#ifndef LODVIZ_CUBE_DATA_CUBE_H_
#define LODVIZ_CUBE_DATA_CUBE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/triple_source.h"

namespace lodviz::cube {

/// Aggregation functions for roll-up / pivot.
enum class Agg { kSum, kAvg, kCount, kMin, kMax };

/// A multidimensional statistical dataset in the W3C Data Cube (qb:)
/// sense: observations with categorical dimensions and numeric measures.
/// This is the substrate of the statistical-WoD tools in Section 3.3
/// (CubeViz, OpenCube, LDCE): faceted cube browsing, 2-D pivot tables,
/// and OLAP slice/dice/roll-up.
class DataCube {
 public:
  struct Observation {
    /// One term id per dimension (aligned with dimension_names()).
    std::vector<rdf::TermId> dims;
    /// One value per measure (aligned with measure_names()).
    std::vector<double> measures;
  };

  /// Extracts a cube from RDF: subjects typed qb:Observation (or all
  /// subjects having every dimension+measure predicate), dimension values
  /// are the objects of `dimension_predicates`, measure values the numeric
  /// objects of `measure_predicates`. Observations missing any component
  /// are skipped.
  static Result<DataCube> FromStore(
      const rdf::TripleSource& source,
      const std::vector<std::string>& dimension_predicates,
      const std::vector<std::string>& measure_predicates);

  const std::vector<std::string>& dimension_names() const {
    return dimension_names_;
  }
  const std::vector<std::string>& measure_names() const {
    return measure_names_;
  }
  const std::vector<Observation>& observations() const {
    return observations_;
  }
  size_t size() const { return observations_.size(); }

  /// Distinct values of one dimension (sorted by label).
  std::vector<rdf::TermId> DimensionValues(size_t dim) const;

  /// Human-readable label of a dimension value.
  std::string ValueLabel(rdf::TermId value) const;

  /// OLAP slice: fix dimension `dim` to `value`; the dimension is removed.
  DataCube Slice(size_t dim, rdf::TermId value) const;

  /// OLAP dice: keep observations whose `dim` value is in `values`
  /// (dimension retained).
  DataCube Dice(size_t dim, const std::set<rdf::TermId>& values) const;

  /// OLAP roll-up: aggregate `measure` grouped by the kept dimensions.
  /// Returns (group key terms, aggregated value) rows.
  struct RollupRow {
    std::vector<rdf::TermId> group;
    double value = 0.0;
    uint64_t count = 0;
  };
  std::vector<RollupRow> RollUp(const std::vector<size_t>& keep_dims,
                                size_t measure, Agg agg) const;

  /// 2-D pivot table over two dimensions (the OpenCube Browser view).
  struct PivotTable {
    std::vector<rdf::TermId> row_values;
    std::vector<rdf::TermId> col_values;
    /// cells[r][c]; NaN when the combination has no observations.
    std::vector<std::vector<double>> cells;
  };
  PivotTable Pivot(size_t row_dim, size_t col_dim, size_t measure,
                   Agg agg) const;

  /// Renders a pivot table as aligned ASCII.
  std::string PivotToString(const PivotTable& table) const;

 private:
  DataCube() = default;

  std::vector<std::string> dimension_names_;
  std::vector<std::string> measure_names_;
  std::vector<Observation> observations_;
  const rdf::Dictionary* dict_ = nullptr;  // not owned; labels only
};

}  // namespace lodviz::cube

#endif  // LODVIZ_CUBE_DATA_CUBE_H_
