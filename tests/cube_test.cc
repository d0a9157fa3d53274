#include <gtest/gtest.h>

#include <cmath>

#include "cube/data_cube.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"

namespace lodviz::cube {
namespace {

/// Population cube: region x year -> population, unemployment.
class CubeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    using rdf::Term;
    struct Row {
      const char* region;
      const char* year;
      double population;
      double unemployment;
    };
    const Row rows[] = {
        {"north", "2014", 100, 5.0}, {"north", "2015", 110, 4.5},
        {"south", "2014", 200, 8.0}, {"south", "2015", 210, 7.5},
        {"east", "2014", 50, 3.0},   {"east", "2015", 55, 3.5},
    };
    int i = 0;
    for (const Row& r : rows) {
      std::string obs = "http://x/obs" + std::to_string(i++);
      store_.Add(Term::Iri(obs), Term::Iri(rdf::vocab::kRdfType),
                 Term::Iri(rdf::vocab::kQbObservation));
      store_.Add(Term::Iri(obs), Term::Iri("http://x/region"),
                 Term::Iri(std::string("http://x/") + r.region));
      store_.Add(Term::Iri(obs), Term::Iri("http://x/year"),
                 Term::Literal(r.year));
      store_.Add(Term::Iri(obs), Term::Iri("http://x/population"),
                 Term::DoubleLiteral(r.population));
      store_.Add(Term::Iri(obs), Term::Iri("http://x/unemployment"),
                 Term::DoubleLiteral(r.unemployment));
    }
    auto cube = DataCube::FromStore(
        store_, {"http://x/region", "http://x/year"},
        {"http://x/population", "http://x/unemployment"});
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    cube_ = std::make_unique<DataCube>(std::move(cube).ValueOrDie());
  }

  rdf::TermId Region(const std::string& name) {
    return store_.dict().Lookup(rdf::Term::Iri("http://x/" + name));
  }
  rdf::TermId Year(const std::string& y) {
    return store_.dict().Lookup(rdf::Term::Literal(y));
  }

  rdf::TripleStore store_;
  std::unique_ptr<DataCube> cube_;
};

TEST_F(CubeFixture, ExtractsAllObservations) {
  EXPECT_EQ(cube_->size(), 6u);
  EXPECT_EQ(cube_->dimension_names().size(), 2u);
  EXPECT_EQ(cube_->measure_names().size(), 2u);
}

TEST_F(CubeFixture, DimensionValues) {
  auto regions = cube_->DimensionValues(0);
  EXPECT_EQ(regions.size(), 3u);
  auto years = cube_->DimensionValues(1);
  EXPECT_EQ(years.size(), 2u);
  EXPECT_EQ(cube_->ValueLabel(years[0]), "2014");
}

TEST_F(CubeFixture, SliceRemovesDimension) {
  DataCube sliced = cube_->Slice(1, Year("2014"));
  EXPECT_EQ(sliced.size(), 3u);
  EXPECT_EQ(sliced.dimension_names(),
            (std::vector<std::string>{"http://x/region"}));
  double total = 0;
  for (const auto& o : sliced.observations()) total += o.measures[0];
  EXPECT_DOUBLE_EQ(total, 350.0);
}

TEST_F(CubeFixture, DiceKeepsDimension) {
  DataCube diced = cube_->Dice(0, {Region("north"), Region("south")});
  EXPECT_EQ(diced.size(), 4u);
  EXPECT_EQ(diced.dimension_names().size(), 2u);
}

TEST_F(CubeFixture, RollUpSumByRegion) {
  auto rows = cube_->RollUp({0}, 0, Agg::kSum);
  ASSERT_EQ(rows.size(), 3u);
  double total = 0;
  for (const auto& r : rows) {
    total += r.value;
    EXPECT_EQ(r.count, 2u);
  }
  EXPECT_DOUBLE_EQ(total, 725.0);
}

TEST_F(CubeFixture, RollUpGrandTotal) {
  auto rows = cube_->RollUp({}, 0, Agg::kSum);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].value, 725.0);
  EXPECT_EQ(rows[0].count, 6u);

  auto avg = cube_->RollUp({}, 1, Agg::kAvg);
  EXPECT_NEAR(avg[0].value, (5.0 + 4.5 + 8.0 + 7.5 + 3.0 + 3.5) / 6, 1e-12);
  auto mx = cube_->RollUp({}, 1, Agg::kMax);
  EXPECT_DOUBLE_EQ(mx[0].value, 8.0);
}

TEST_F(CubeFixture, PivotTable) {
  auto pivot = cube_->Pivot(0, 1, 0, Agg::kSum);
  ASSERT_EQ(pivot.row_values.size(), 3u);
  ASSERT_EQ(pivot.col_values.size(), 2u);
  // Row order is label-sorted: east, north, south.
  EXPECT_DOUBLE_EQ(pivot.cells[0][0], 50.0);   // east 2014
  EXPECT_DOUBLE_EQ(pivot.cells[1][1], 110.0);  // north 2015
  EXPECT_DOUBLE_EQ(pivot.cells[2][0], 200.0);  // south 2014

  std::string rendered = cube_->PivotToString(pivot);
  EXPECT_NE(rendered.find("2014"), std::string::npos);
  EXPECT_NE(rendered.find("south"), std::string::npos);
}

TEST_F(CubeFixture, PivotWithMissingCombinationsHasNaN) {
  // A sparse cube: north has only 2014, south only 2015.
  using rdf::Term;
  rdf::TripleStore store;
  const Term region = Term::Iri("http://x/region");
  const Term year = Term::Iri("http://x/year");
  const Term m = Term::Iri("http://x/m");
  store.Add(Term::Iri("http://x/o1"), region, Term::Literal("north"));
  store.Add(Term::Iri("http://x/o1"), year, Term::Literal("2014"));
  store.Add(Term::Iri("http://x/o1"), m, Term::DoubleLiteral(1.0));
  store.Add(Term::Iri("http://x/o2"), region, Term::Literal("south"));
  store.Add(Term::Iri("http://x/o2"), year, Term::Literal("2015"));
  store.Add(Term::Iri("http://x/o2"), m, Term::DoubleLiteral(2.0));
  auto sparse = DataCube::FromStore(
      store, {"http://x/region", "http://x/year"}, {"http://x/m"});
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  auto pivot = sparse->Pivot(0, 1, 0, Agg::kSum);
  ASSERT_EQ(pivot.cells.size(), 2u);
  int nan_count = 0;
  for (const auto& row : pivot.cells) {
    for (double v : row) {
      if (std::isnan(v)) ++nan_count;
    }
  }
  EXPECT_EQ(nan_count, 2);
}

TEST(CubeTest, FromStoreErrors) {
  rdf::TripleStore empty;
  EXPECT_FALSE(
      DataCube::FromStore(empty, {"http://x/d"}, {"http://x/m"}).ok());
  EXPECT_FALSE(DataCube::FromStore(empty, {}, {"http://x/m"}).ok());
}

TEST(CubeTest, IncompleteObservationsSkipped) {
  using rdf::Term;
  rdf::TripleStore store;
  store.Add(Term::Iri("http://x/o1"), Term::Iri("http://x/d"),
            Term::Iri("http://x/v1"));
  store.Add(Term::Iri("http://x/o1"), Term::Iri("http://x/m"),
            Term::DoubleLiteral(1.0));
  // o2 lacks the measure.
  store.Add(Term::Iri("http://x/o2"), Term::Iri("http://x/d"),
            Term::Iri("http://x/v2"));
  // o3 has a non-numeric measure.
  store.Add(Term::Iri("http://x/o3"), Term::Iri("http://x/d"),
            Term::Iri("http://x/v3"));
  store.Add(Term::Iri("http://x/o3"), Term::Iri("http://x/m"),
            Term::Literal("n/a"));
  auto cube = DataCube::FromStore(store, {"http://x/d"}, {"http://x/m"});
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->size(), 1u);
}

}  // namespace
}  // namespace lodviz::cube
