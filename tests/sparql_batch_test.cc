// Vectorized-execution tests: ColumnBatch representation invariants
// (constant/dense segment encoding, selection vectors, batch-list
// addressing), closed-form engine answers at the kBatchRows chunk
// boundaries (0/1/1023/1024/1025 rows), and the GROUP BY determinism pin —
// group output order is ascending TermId-vector order, a contract the
// FNV-hashed grouping map must reproduce by sorting its keys (the former
// std::map got it implicitly).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "sparql/column_batch.h"
#include "sparql/engine.h"

namespace lodviz::sparql {
namespace {

using rdf::kInvalidTermId;
using rdf::TermId;

TEST(ColumnBatchTest, SegmentStaysConstantOnAgreement) {
  ColumnSegment seg;
  EXPECT_TRUE(seg.constant());
  EXPECT_EQ(seg.constant_value(), kInvalidTermId);

  seg.Append(7, 0);
  EXPECT_TRUE(seg.constant());
  EXPECT_EQ(seg.constant_value(), 7u);
  seg.AppendRepeat(7, 100, 1);
  EXPECT_TRUE(seg.constant());

  const TermId same[3] = {7, 7, 7};
  seg.AppendDense(same, 3, 101);
  EXPECT_TRUE(seg.constant());
  EXPECT_EQ(seg.at(0), 7u);
  EXPECT_EQ(seg.at(103), 7u);
}

TEST(ColumnBatchTest, SegmentDensifiesOnDisagreementAndBackfills) {
  ColumnSegment seg;
  seg.AppendRepeat(5, 4, 0);  // 4 rows of 5, still constant
  ASSERT_TRUE(seg.constant());
  seg.Append(9, 4);  // first disagreement: rows 0-3 must backfill to 5
  EXPECT_FALSE(seg.constant());
  for (uint32_t r = 0; r < 4; ++r) EXPECT_EQ(seg.at(r), 5u) << r;
  EXPECT_EQ(seg.at(4), 9u);

  // A dense run that starts agreeing and then diverges mid-run.
  ColumnSegment seg2;
  seg2.Append(1, 0);
  const TermId run[4] = {1, 1, 2, 3};
  seg2.AppendDense(run, 4, 1);
  EXPECT_FALSE(seg2.constant());
  const TermId want[5] = {1, 1, 1, 2, 3};
  for (uint32_t r = 0; r < 5; ++r) EXPECT_EQ(seg2.at(r), want[r]) << r;
}

TEST(ColumnBatchTest, AppendRunKeepsCarriedColumnsConstant) {
  ColumnBatch batch(3);
  // Base solution: slot 0 bound to 42, slots 1-2 unbound; slot 1 varies.
  const TermId sol[3] = {42, kInvalidTermId, kInvalidTermId};
  const TermId vals[4] = {10, 11, 12, 13};
  const ColumnBatch::RunColumn var[1] = {{1, vals}};
  batch.AppendRun(sol, 4, var, 1);

  EXPECT_EQ(batch.rows(), 4u);
  EXPECT_TRUE(batch.col(0).constant());
  EXPECT_EQ(batch.col(0).constant_value(), 42u);
  EXPECT_FALSE(batch.col(1).constant());
  EXPECT_TRUE(batch.col(2).constant());
  EXPECT_EQ(batch.col(2).constant_value(), kInvalidTermId);
  for (uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(batch.at(r, 1), vals[r]) << r;
  }
  TermId out[3];
  batch.GatherRow(2, out);
  EXPECT_EQ(out[0], 42u);
  EXPECT_EQ(out[1], 12u);
  EXPECT_EQ(out[2], kInvalidTermId);
}

TEST(ColumnBatchTest, SelectionRoundTrip) {
  ColumnBatch batch(2);
  for (TermId r = 0; r < 6; ++r) {
    const TermId row[2] = {r, 100 + r};
    batch.AppendRow(row);
  }
  EXPECT_EQ(batch.active(), 6u);
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.ActiveRow(3), 3u);

  batch.SetSelection({0, 2, 5});
  EXPECT_EQ(batch.rows(), 6u);  // physical rows untouched
  EXPECT_EQ(batch.active(), 3u);
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.ActiveRow(0), 0u);
  EXPECT_EQ(batch.ActiveRow(1), 2u);
  EXPECT_EQ(batch.ActiveRow(2), 5u);
  EXPECT_EQ(batch.at(batch.ActiveRow(2), 1), 105u);

  // Re-filtering installs a subset selection in physical indices — the
  // pattern FilterBatches uses on already-filtered batches.
  batch.SetSelection({2, 5});
  EXPECT_EQ(batch.active(), 2u);
  EXPECT_EQ(batch.at(batch.ActiveRow(0), 0), 2u);

  batch.Clear();
  EXPECT_EQ(batch.rows(), 0u);
  EXPECT_EQ(batch.active(), 0u);
  EXPECT_FALSE(batch.has_selection());
}

TEST(ColumnBatchTest, BatchListViewSkipsEmptyAndHonorsSelections) {
  std::vector<ColumnBatch> batches;
  // Batch 0: 3 rows, selection keeps {1}. Batch 1: empty. Batch 2: 2 rows.
  batches.emplace_back(1);
  for (TermId r = 0; r < 3; ++r) {
    batches.back().AppendRow(&r);
  }
  batches.back().SetSelection({1});
  batches.emplace_back(1);
  batches.emplace_back(1);
  for (TermId r = 10; r < 12; ++r) {
    batches.back().AppendRow(&r);
  }

  const BatchListView view(batches);
  ASSERT_EQ(view.total(), 3u);
  std::vector<TermId> seen;
  view.ForEachRow(0, view.total(), [&](const ColumnBatch& b, uint32_t phys) {
    seen.push_back(b.at(phys, 0));
  });
  EXPECT_EQ(seen, (std::vector<TermId>{1, 10, 11}));

  // Locate agrees with the iteration, including sub-ranges.
  EXPECT_EQ(view.Locate(0).first, 0u);
  EXPECT_EQ(view.Locate(0).second, 1u);
  EXPECT_EQ(view.Locate(1).first, 2u);
  EXPECT_EQ(view.Locate(1).second, 0u);
  EXPECT_EQ(view.Locate(2).second, 1u);
  seen.clear();
  view.ForEachRow(1, 3, [&](const ColumnBatch& b, uint32_t phys) {
    seen.push_back(b.at(phys, 0));
  });
  EXPECT_EQ(seen, (std::vector<TermId>{10, 11}));
}

// ---------------------------------------------------------------------------
// Engine-level chunk boundaries: stores whose solution counts land exactly
// around kBatchRows, checked against answers derived in closed form from
// the data, so every operator that crosses a batch boundary (scan/extend,
// specialized filter, DISTINCT, LIMIT/OFFSET, ORDER BY, aggregates, ASK)
// is held to the right answer, not merely to a second implementation.
// ---------------------------------------------------------------------------

std::string Key(const ResultTable& t) {
  return (t.ask_result ? "ask:true\n" : "ask:false\n") +
         t.ToString(t.num_rows());
}

// Subject i is <http://z/s%06d> with integer value i. Subjects and values
// are interned in document order, so index order is ascending i.
std::string SubjectIri(size_t i) {
  char iri[32];
  std::snprintf(iri, sizeof(iri), "http://z/s%06zu", i);
  return iri;
}

void FillStore(size_t n, rdf::TripleStore* store) {
  std::string doc;
  for (size_t i = 0; i < n; ++i) {
    doc += '<';
    doc += SubjectIri(i);
    doc += "> <http://z/v> \"" + std::to_string(i) +
           "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  }
  ASSERT_TRUE(rdf::LoadNTriplesString(doc, store).ok());
}

// Checks that the first column of `t` holds consecutive subjects from
// `first` on, one per row, counting down when `descending`.
void ExpectSubjects(const ResultTable& t, size_t first, bool descending,
                    const std::string& what) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const size_t i = descending ? first - r : first + r;
    ASSERT_EQ(t.rows()[r][0].term.lexical, SubjectIri(i))
        << what << " row " << r;
  }
}

TEST(BatchBoundaryTest, ClosedFormAnswersAroundChunkBoundaries) {
  static_assert(kBatchRows == 1024, "boundary sizes assume 1K chunks");
  for (size_t n : {size_t{0}, size_t{1}, kBatchRows - 1, kBatchRows,
                   kBatchRows + 1}) {
    rdf::TripleStore store;
    FillStore(n, &store);
    QueryEngine engine(&store);
    auto run = [&](const char* q) {
      auto got = engine.ExecuteString(q);
      EXPECT_TRUE(got.ok()) << "n=" << n << " " << q << "\n"
                            << got.status().ToString();
      return got.ok() ? std::move(got).ValueOrDie() : ResultTable();
    };
    const std::string at = "n=" + std::to_string(n);

    // Scan: every subject once, in subject order, with its own value.
    ResultTable all = run("SELECT ?s ?v WHERE { ?s <http://z/v> ?v . }");
    ASSERT_EQ(all.num_rows(), n) << at;
    ExpectSubjects(all, 0, false, at + " scan");
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(all.rows()[r][1].term.lexical, std::to_string(r)) << at;
    }

    // Specialized numeric filter: subjects 512..n-1.
    ResultTable filtered = run(
        "SELECT ?s WHERE { ?s <http://z/v> ?v . FILTER(?v >= 512) }");
    ASSERT_EQ(filtered.num_rows(), n > 512 ? n - 512 : 0u) << at;
    ExpectSubjects(filtered, 512, false, at + " filter");

    // DISTINCT over n distinct values keeps all of them.
    EXPECT_EQ(run("SELECT DISTINCT ?v WHERE { ?s <http://z/v> ?v . }")
                  .num_rows(),
              n)
        << at;

    // LIMIT/OFFSET window [1020, min(n, 1030)).
    ResultTable window = run(
        "SELECT ?s WHERE { ?s <http://z/v> ?v . } LIMIT 10 OFFSET 1020");
    const size_t window_end = std::min<size_t>(n, 1030);
    ASSERT_EQ(window.num_rows(), window_end > 1020 ? window_end - 1020 : 0u)
        << at;
    ExpectSubjects(window, 1020, false, at + " window");

    // DESC order: subjects n-1 down to 0.
    ResultTable desc = run(
        "SELECT ?s ?v WHERE { ?s <http://z/v> ?v . } ORDER BY DESC(?v)");
    ASSERT_EQ(desc.num_rows(), n) << at;
    if (n > 0) ExpectSubjects(desc, n - 1, true, at + " desc");

    // Aggregates: COUNT = n, SUM = n(n-1)/2 (one row even when n = 0).
    ResultTable agg = run(
        "SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?sum) WHERE "
        "{ ?s <http://z/v> ?v . }");
    ASSERT_EQ(agg.num_rows(), 1u) << at;
    EXPECT_EQ(agg.rows()[0][0].term.lexical, std::to_string(n)) << at;
    auto sum = agg.rows()[0][1].term.AsDouble();
    ASSERT_TRUE(sum.ok()) << at;
    const double dn = static_cast<double>(n);
    EXPECT_EQ(sum.ValueOrDie(), dn * (dn - 1) / 2) << at;

    // ASK: a value above 1023 exists iff n > 1024.
    EXPECT_EQ(run("ASK { ?s <http://z/v> ?v . FILTER(?v > 1023) }").ask_result,
              n > kBatchRows)
        << at;
  }
}

// ---------------------------------------------------------------------------
// GROUP BY output-order determinism.
// ---------------------------------------------------------------------------

TEST(GroupByDeterminismTest, OutputOrderIsAscendingGroupKeyIds) {
  // <http://g/B> is interned before <http://g/A> (document order), so its
  // TermId is smaller and its group must come FIRST — group order is
  // ascending TermId order, not lexicographic string order. This pins the
  // sorted-keys contract of the FNV-hashed grouping map (and documents
  // that the old std::map behaved identically: both sort the TermId key
  // vector).
  const char* doc = R"(
<http://g/b1> <http://g/type> <http://g/B> .
<http://g/a1> <http://g/type> <http://g/A> .
<http://g/a2> <http://g/type> <http://g/A> .
<http://g/a3> <http://g/type> <http://g/A> .
)";
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::LoadNTriplesString(doc, &store).ok());
  store.Compact();
  const char* q =
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s <http://g/type> ?t . } "
      "GROUP BY ?t";

  QueryEngine engine(&store);
  std::string first;
  for (int repeat = 0; repeat < 5; ++repeat) {
    auto got = engine.ExecuteString(q);
    ASSERT_TRUE(got.ok());
    const ResultTable& t = got.ValueOrDie();
    ASSERT_EQ(t.num_rows(), 2u);
    EXPECT_EQ(t.rows()[0][0].term.lexical, "http://g/B");
    EXPECT_EQ(t.rows()[0][1].term.lexical, "1");
    EXPECT_EQ(t.rows()[1][0].term.lexical, "http://g/A");
    EXPECT_EQ(t.rows()[1][1].term.lexical, "3");
    // And the whole rendering is identical run to run (hash-map
    // iteration order must never leak into the output).
    if (repeat == 0) {
      first = Key(t);
    } else {
      EXPECT_EQ(first, Key(t)) << "repeat " << repeat;
    }
  }
}

}  // namespace
}  // namespace lodviz::sparql
